"""Command-line surface: one subcommand per measure plus a consolidated
report runner and the complexity-table generator.

Exit codes: 0 full success, 1 partial per-metric failures (report), 2
configuration, validation or file-system error (such as an unwritable
output path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, align as align_mod, encode, entropy as entropy_mod
from . import fractal as fractal_mod, lzw as lzw_mod, returns as returns_mod
from .analysis import compute_market_metrics, correlate_markets, report_csv
from .bdm import CtmTable, bdm as bdm_fn, check_d_max, ctm_from_frequency
from .bdm import remove_checkpoints
from .errors import ConfigError, CsvParseError, MarketComplexityError, SeriesTooShortError
from .ingest import KINDS, PriceSeries, parse_csv, parse_date, serialize_csv, text_lines


def _read_series(path: str, id: str = "", kind: str = "stock index") -> PriceSeries:
    """A price file as a series named `id`, or after the file's stem."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}")
    try:
        return parse_csv(data, id=id or Path(path).stem, kind=kind)
    except (CsvParseError, SeriesTooShortError) as exc:
        exc.args = (f"{path}: {exc}",)  # name the file at fault
        raise


def _write(path: str | Path, text: str, config_hash: str = "none") -> None:
    """Write `text` under a first line naming the version and the config."""
    header = f"# marketcomplexity {__version__} config={config_hash}\n"
    Path(path).write_text(header + text, encoding="utf-8")


# ---------------------------------------------------------------------------
# report configuration


def _validate(cfg: SimpleNamespace) -> None:
    """Refuse a parsed config that `report` cannot run."""
    if not cfg.markets:
        raise ConfigError("no markets configured (need at least one `market =` line)")
    ids = [m[0] for m in cfg.markets]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate market ids in config")
    for id, kind, path in cfg.markets:
        # an id names the market's output files, so it must be a plain file name
        if id in ("", ".", "..") or "/" in id or "\\" in id:
            raise ConfigError(f"market {id!r}: id must be a plain file name")
        if kind not in KINDS:
            raise ConfigError(f"market {id!r}: unknown kind {kind!r}")
    written = {}
    for a, b in cfg.pairs:
        if a not in ids or b not in ids:
            raise ConfigError(f"pair {a},{b} references an unconfigured market")
        # two pairs that name one aligned file would overwrite each other
        name = _aligned_name(a, b)
        if name in written:
            raise ConfigError(f"pairs {written[name]} and {a},{b} both write {name}")
        written[name] = f"{a},{b}"
    if cfg.window_start and cfg.window_end and cfg.window_start >= cfg.window_end:
        raise ConfigError("window.start must precede window.end")
    if cfg.max_block < 1 or cfg.bdm_d < 1 or cfg.fractal_L < 2:
        raise ConfigError("invalid analysis parameters")
    if cfg.bdm_overlap is not None and not 1 <= cfg.bdm_overlap <= cfg.bdm_d:
        raise ConfigError(f"bdm.overlap must be in 1..{cfg.bdm_d} (bdm.d)")


def _aligned_name(src_id: str, dst_id: str) -> str:
    return f"{src_id}__{dst_id}_aligned.csv"


def parse_config(path: str) -> SimpleNamespace:
    """Flat `key = value` config file; only `market` and `pair` keys repeat.
    The result holds each key's field, and `config_hash` of the file's bytes."""
    try:
        raw = Path(path).read_bytes()
        lines = text_lines(raw)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    import hashlib  # here, so that a run without a config never loads OpenSSL
    digest = hashlib.sha256(raw).hexdigest()[:12]
    defaults = {name: default for name, _, default in _FIELD_KEYS.values()}
    cfg = SimpleNamespace(markets=[], pairs=[], config_hash=digest, **defaults)
    given = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            _apply_config_key(cfg, key, value, given)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}")
    return cfg


# the keys that repeat, each with the fields of its value
_LIST_KEYS = {"market": ("markets", "id,kind,path"), "pair": ("pairs", "src_id,dst_id")}
# every other key sets one field: (name, parser of its value, default)
_FIELD_KEYS = {
    "window.start": ("window_start", parse_date, None),
    "window.end": ("window_end", parse_date, None),
    "entropy.max_block": ("max_block", int, 4),
    "bdm.d": ("bdm_d", int, 4),
    "bdm.overlap": ("bdm_overlap", int, None),
    "bdm.table": ("bdm_table", str, None),
    "fractal.L": ("fractal_L", int, 2),
    "output.dir": ("output_dir", str, "out"),
}


def _apply_config_key(cfg: SimpleNamespace, key: str, value: str, given: set[str]) -> None:
    if key in _LIST_KEYS:
        name, shape = _LIST_KEYS[key]
        parts = tuple(v.strip() for v in value.split(","))
        if len(parts) != shape.count(",") + 1:
            raise ConfigError(f"{key} value must be `{shape}`")
        getattr(cfg, name).append(parts)
    elif key in _FIELD_KEYS:
        if key in given:
            raise ConfigError(f"{key} given twice")
        given.add(key)
        name, parse, _ = _FIELD_KEYS[key]
        setattr(cfg, name, parse(value))
    else:
        raise ConfigError(f"unknown config key {key!r}")


def _default_table() -> CtmTable:
    # fast, deterministic stand-in when no table file is configured
    from .bdm import enumerate_machines

    return ctm_from_frequency(enumerate_machines(2), d_max=7)


# ---------------------------------------------------------------------------
# subcommands


def cmd_report(args) -> int:
    cfg = parse_config(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    _validate(cfg)
    series = {id: _read_series(path, id, kind) for id, kind, path in cfg.markets}
    table = CtmTable.load(cfg.bdm_table) if cfg.bdm_table else _default_table()
    if cfg.bdm_d > table.d_max:
        raise ConfigError(f"bdm.d={cfg.bdm_d} exceeds table coverage d_max={table.d_max}")
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    failures = []
    for id, kind, _ in cfg.markets:
        full = series[id]
        m = compute_market_metrics(
            full,
            full.window(cfg.window_start, cfg.window_end),
            table,
            max_block=cfg.max_block,
            bdm_d=cfg.bdm_d,
            bdm_overlap=cfg.bdm_overlap,
            hw_L=cfg.fractal_L,
        )
        if m.histogram is not None:
            _write(outdir / f"{id}_hist.csv", m.histogram.to_csv(), cfg.config_hash)
        rows.append(m)
        failures.extend((id, name, reason) for name, reason in sorted(m.failures.items()))
    _write(outdir / "report.csv", report_csv(rows), cfg.config_hash)

    for src_id, dst_id in cfg.pairs:
        name = _aligned_name(src_id, dst_id)
        try:
            src, dst = series[src_id], series[dst_id]
            anchors = align_mod.peak_anchors(src), align_mod.peak_anchors(dst)
            pair = align_mod.align(src.sampled(), dst.sampled(), *anchors)
            _write(outdir / name, pair.to_csv(), cfg.config_hash)
        except MarketComplexityError as exc:
            failures.append((f"{src_id}__{dst_id}", "alignment", str(exc)))

    lines = [f"markets={len(cfg.markets)}"]
    if cfg.window_start:
        lines.append(f"window.start={cfg.window_start.date().isoformat()}")
    if cfg.window_end:
        lines.append(f"window.end={cfg.window_end.date().isoformat()}")
    lines.append(f"ctm: {table.header[2:]}")
    lines.append(
        f"params: max_block={cfg.max_block} bdm_d={cfg.bdm_d} "
        f"bdm_overlap={cfg.bdm_overlap or cfg.bdm_d} fractal_L={cfg.fractal_L}"
    )
    if failures:
        lines.append("failures:")
        for id, metric, reason in failures:
            lines.append(f"  {id} {metric}: {reason}")
    else:
        lines.append("failures: none")
    _write(outdir / "report.txt", "\n".join(lines) + "\n", cfg.config_hash)

    for id, metric, reason in failures:
        print(f"warning: {id} {metric}: {reason}", file=sys.stderr)
    return 1 if failures else 0


def cmd_ctm_gen(args) -> int:
    check_d_max(args.d_max)  # before a run that can take minutes
    out = Path(args.out)
    if not out.parent.is_dir():
        raise ConfigError(f"--out: {out.parent} is not an existing directory")
    if out.is_dir():
        raise ConfigError(f"--out: {out} is a directory")
    from .bdm import enumerate_machines

    dist = enumerate_machines(args.states, shards=args.shards, checkpoint=out, resume=args.resume)
    table = ctm_from_frequency(dist, d_max=args.d_max)
    table.save(out)
    remove_checkpoints(out, args.shards)  # only once the table is on disk
    print(f"wrote {out} ({len(table.values)} entries, {dist.halting // 2} halting machines)")
    return 0


def cmd_ingest(args, s: PriceSeries) -> int:
    text = serialize_csv(s)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_align(args, src: PriceSeries, dst: PriceSeries) -> int:
    anchors = align_mod.peak_anchors(src), align_mod.peak_anchors(dst)
    m = align_mod.fit_time_map(*anchors)
    pair = align_mod.align(src.sampled(), dst.sampled(), *anchors)
    print(f"slope={m.slope!r} intercept={m.intercept!r} points={len(pair)}")
    if args.out:
        _write(args.out, pair.to_csv())
    return 0


def cmd_returns(args, s: PriceSeries) -> int:
    logret = returns_mod.log_returns(s)
    st = returns_mod.moments(logret)
    print(
        f"n={st.n} mean={st.mean!r} std={st.std_dev!r} "
        f"kurtosis={st.kurtosis!r} skewness={st.skewness!r}"
    )
    if args.hist_out:
        hist = returns_mod.build_histogram(logret, st)
        _write(args.hist_out, hist.to_csv())
    return 0


def cmd_entropy(args, s: PriceSeries) -> int:
    r = entropy_mod.block_entropy(encode.binarize(s), max_block=args.max_block)
    print(f"bits={r.bits!r} normalized={r.normalized!r} block_max={r.block_max}")
    return 0


def cmd_compress(args, s: PriceSeries) -> int:
    if args.mode == "binary":
        data = encode.binarize(s).encode("ascii")
    else:
        data = encode.serialize_prices(s)
    ratio = lzw_mod.compressibility(data)
    print(f"mode={args.mode} bytes={len(data)} compressibility={ratio!r}")
    return 0


def cmd_bdm(args, s: PriceSeries) -> int:
    table = CtmTable.load(args.table)
    r = bdm_fn(encode.binarize(s), table, d=args.d, overlap=args.overlap)
    print(
        f"k_estimate={r.k_estimate!r} normalized={r.normalized!r} "
        f"deficiency={r.deficiency!r} blocks_missing={r.blocks_missing_from_table}"
    )
    return 0


def cmd_fractal(args, s: PriceSeries) -> int:
    est = fractal_mod.hall_wood(s, args.L)
    scales = f" L={args.L}" if args.L != 2 else ""
    print(f"dimension={est.value!r} raw={est.raw!r}{scales}")
    return 0


def cmd_correlate(args, src: PriceSeries, dst: PriceSeries) -> int:
    anchors = align_mod.peak_anchors(src), align_mod.peak_anchors(dst)
    value = correlate_markets(src, dst, *anchors, movements=args.movements)
    what = "movements" if args.movements else "prices"
    print(f"correlation({what})={value!r}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketcomplexity",
        description="Complexity measures for market price histories",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, fn, *inputs):
        """A subcommand that runs `fn` on the args and the series read from
        the price files named `inputs`; the caller adds its own flags to the
        parser returned."""
        p = sub.add_parser(name, help=help)
        for input in inputs:
            p.add_argument(input)
        p.set_defaults(fn=fn, inputs=inputs)
        return p

    p = command("ingest", "validate and canonicalize a price CSV", cmd_ingest, "file")
    p.add_argument("--out")
    p = command("align", "peak-anchor one market onto another", cmd_align, "src", "dst")
    p.add_argument("--out")
    p = command("returns", "log-return moment statistics", cmd_returns, "file")
    p.add_argument("--hist-out")
    p = command("entropy", "block entropy of price movements", cmd_entropy, "file")
    p.add_argument("--max-block", type=int, default=4)
    p = command("compress", "LZW compressibility", cmd_compress, "file")
    p.add_argument("--mode", choices=("binary", "real"), default="binary")
    p = command("bdm", "block-decomposition complexity estimate", cmd_bdm, "file")
    p.add_argument("--table", required=True)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--overlap", type=int, default=None)
    p = command("ctm-gen", "generate a complexity table", cmd_ctm_gen)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--d-max", type=int, default=None)
    p = command("fractal", "fractal dimension of the price path", cmd_fractal, "file")
    p.add_argument("--L", type=int, default=2)
    p = command("correlate", "correlation after peak alignment", cmd_correlate, "src", "dst")
    p.add_argument("--movements", action="store_true")
    p = command("report", "full metric report from a config file", cmd_report)
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow and division by zero surface as failures or errors with
        # reasons; numpy's own warnings about them would only add noise
        with np.errstate(all="ignore"):
            return args.fn(args, *[_read_series(getattr(args, name)) for name in args.inputs])
    except (MarketComplexityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
