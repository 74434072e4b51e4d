"""File ingestion: inter-country IO tables, emissions vectors, indicator
panels, and run configuration.

All files are UTF-8, comma-delimited, LF-terminated, decimal-point only;
a byte that is not UTF-8 is a ``SchemaError`` naming its line or row.
The IO-table format carries a small metadata block ahead of the matrix:

    #countries: AAA,BBB
    #industries: D10T12,D35
    #year: 1995
    row,AAA:D10T12,...,FD:AAA,FD:BBB,OUT
    AAA:D10T12,<Z values...>,<final demand per destination>,<gross output>

Each data row holds the intermediate-use row, final demand aggregated to
one column per destination country, and gross output last. Value added is
the column residual, so the file fully determines the table.

Numbers in every file follow one grammar, :func:`_parse_float`: ASCII
decimal (``12.5``, ``-3``, ``4.1e-07``), optionally in double quotes, and
finite. An ICIO body is parsed by one ``np.loadtxt`` pass in this
process. A ``SchemaError`` names the file, and for a body the first faulty
row. A valid body is kept beside its table in ``__gvccarbon_cache__``, by
sha256, so only the first load of a set of bytes parses them; the same
digest goes into a report's manifest.

Writers emit a canonical form (shortest round-trip float repr, ``0`` for
either zero), which makes load -> save -> load byte-stable. The ICIO
writer cuts the rows into row-aligned spans, one per usable CPU and each
at least ``MIN_SPAN_BYTES`` of float64 values, and formats the first span
in this process and the others in forked workers. Writes go to a temp file
in the target directory, in row order, and are renamed into place; the
file gets the mode ``open`` would give it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import math
import multiprocessing
import operator
import os
import re
from concurrent.futures import ProcessPoolExecutor
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DuplicateKey,
    MissingRow,
    NegativeEmission,
    SchemaError,
    UnknownVariableName,
)
from .estimators import COVARIANCE_SCHEMES, INSTRUMENT_VARIANTS
from .mrio import EmissionIntensity, IcioTable, repeated, row_labels
from .panel import DEFAULT_MANUFACTURING, INDICATOR_VARIABLES

DATA_DIR_ENV = "GVCCARBON_DATA_DIR"

#: Accepted spellings for indicator codes, normalized to the canonical one.
VARIABLE_ALIASES = {
    "STR": "ESI",
    "STRINGENCY": "ESI",
    "TRADE_OPENNESS": "TO",
    "GDP_PER_CAPITA": "GDP",
}


@contextlib.contextmanager
def _replacing(path: Path, mode="w"):
    """A temp file beside ``path``, renamed there when the block ends."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # Mode "x" creates the file as open() does, 0666 less the umask.
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    handle = open(tmp, mode.replace("w", "x"), **text)
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, *parts: str):
    """Write ``parts`` to a temp file beside ``path``, then rename it there."""
    with _replacing(path) as handle:
        handle.writelines(parts)


def _fmt(value: float) -> str:
    """Canonical number token: the shortest round-trip ``repr`` of the
    float, and ``0`` for +0.0 and -0.0."""
    value = float(value)
    return repr(value) if value else "0"


def _parse_float(token: str, where: str) -> float:
    """``token`` as a finite float, in the number grammar of every input
    file: ASCII decimal such as ``12.5``, ``-3`` or ``4.1e-07``, blanks
    around it allowed. ``float`` would also read ``1_000`` and non-ASCII
    digits."""
    token = token.strip()
    try:
        if not token.isascii() or "_" in token:
            raise ValueError
        value = float(token)
    except ValueError:
        raise SchemaError(f"{where}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: non-finite value {token!r}")
    return value


def _check_utf8(text, where):
    """Raise ``SchemaError`` at ``where`` for a byte of ``text`` that is not
    UTF-8, which ``errors="surrogateescape"`` reads as U+DC80..U+DCFF."""
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        raise SchemaError(f"{where}: byte {ord(bad.group()) - 0xdc00:#04x} is not UTF-8")


def _read_records(path: Path, header):
    """Yield ``(line number, cells)`` for each data row of a headed CSV file.

    The first row must equal ``header`` exactly, empty rows are skipped,
    and every other row must have one cell per header column. A missing
    file, a wrong header, a byte that is not UTF-8 or a row of the wrong
    width raises ``SchemaError`` naming the file and, for a row, its line.
    """
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    with path.open(encoding="utf-8", errors="surrogateescape",
                   newline="") as handle:
        rows = csv.reader(handle)
        if next(rows, None) != header:
            raise SchemaError(f"{path}: header must be {','.join(header)}")
        for line, row in enumerate(rows, start=2):
            _check_utf8(",".join(row), f"{path} line {line}")
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path} line {line}: expected {len(header)} columns")
            yield line, row


def _parse_int(token: str, where: str) -> int:
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", token):
        raise SchemaError(f"{where}: {token!r} is not an integer")
    return int(token)


# ---------------------------------------------------------------------------
# ICIO tables
# ---------------------------------------------------------------------------

#: Smallest span of ICIO rows worth a forked write worker of its own, in
#: bytes of float64 values. On 2 CPUs two write spans win at any size this
#: rule allows; a 77 x 45 table writes in 7-9 s in two, 11-16 s in one.
MIN_SPAN_BYTES = 2 * 2**20

#: Where each table's parsed body is kept; change the tag with the reader.
CACHE_DIR = "__gvccarbon_cache__"
CACHE_TAG = "v1"
#: A file whose stamp is unchanged holds the bytes it held; ``cp -p`` keeps
#: the inode, size and mtime of a file it overwrites, but not the ctime.
_STAMP = operator.attrgetter("st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
#: ``{absolute path: (stamp, sha256 hex)}`` of each table ``load_icio``
#: hashed, so that :func:`_input_sha256` need not hash it again. It is kept
#: here because ``load_icio(path)`` returns the table alone.
_LOADED_SHA256 = {}


def load_icio(path) -> IcioTable:
    """Parse and validate one inter-country IO table file: the metadata
    and header lines, counted in bytes, then the kept or parsed body."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    meta = {}
    body_start = 0
    # newline="" splits lines at any line end without translating it, so
    # the encoded lines add up to the byte offset of the body.
    with path.open(encoding="utf-8", errors="surrogateescape",
                   newline="") as handle:
        for number, line in enumerate(handle, start=1):
            _check_utf8(line, f"{path} line {number}")
            body_start += len(line.encode("utf-8"))
            if not line.startswith("#"):
                header = next(csv.reader([line]), [])
                break
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        else:
            raise SchemaError(f"{path}: no matrix body found")

    codes = []
    for key in ("countries", "industries"):
        if key not in meta:
            raise SchemaError(f"{path}: metadata line '#{key}:' is required")
        codes.append(_parse_list(meta[key]))
        if not codes[-1]:
            raise SchemaError(f"{path}: metadata line '#{key}:' lists no code")
    countries, industries = codes
    year = _parse_int(meta["year"], f"{path} #year") if "year" in meta else None

    labels = row_labels(countries, industries)
    n, nk = len(countries), len(labels)
    expected_header = (["row"] + labels + [f"FD:{c}" for c in countries]
                       + ["OUT"])
    if header != expected_header:
        raise SchemaError(
            f"{path}: header must declare {len(expected_header)} columns "
            "(row, one per country-industry, one FD per country, OUT)")

    stamp, sha256 = _STAMP(path.stat()), _file_sha256(path)
    _LOADED_SHA256[path.absolute()] = stamp, sha256
    entry = path.parent / CACHE_DIR / f"{path.name}.{sha256}.{CACHE_TAG}.npy"
    kept = _cached_body(entry, (nk, len(expected_header) - 1))
    values = kept if kept is not None else _parse_body(
        path, body_start, labels, len(expected_header))
    try:
        table = IcioTable(countries, industries, values[:, :nk],
                          values[:, nk:nk + n], values[:, -1], year=year)
    except SchemaError as exc:  # the table checks do not know the file
        exc.args = (f"{path}: {exc}",)
        raise
    if kept is None and _STAMP(path.stat()) == stamp:  # unchanged since hashed
        _keep_body(path, entry, values)
    return table


def _file_sha256(path):
    """The sha256 hex of the bytes of ``path``, read in 1 MiB blocks,
    never whole."""
    digest, block = hashlib.sha256(), bytearray(2**20)
    with open(path, "rb", buffering=0) as handle:
        while count := handle.readinto(block):
            digest.update(memoryview(block)[:count])
    return digest.hexdigest()


def _input_sha256(path):
    """The sha256 hex of the bytes of ``path``: the digest ``load_icio``
    took of it if the file's stamp is the same since, else a new one."""
    path = Path(path)
    known = _LOADED_SHA256.get(path.absolute())
    if known is not None and known[0] == _STAMP(path.stat()):
        return known[1]
    return _file_sha256(path)


def _cached_body(entry, shape):
    """The float64 ``.npy`` array of ``shape`` at ``entry``, else None."""
    try:
        with open(entry, "rb") as handle:
            values = np.lib.format.read_array(handle, allow_pickle=False)
    except (OSError, ValueError):
        return None
    return values if (values.dtype, values.shape) == (float, shape) else None


def _keep_body(path, entry, values):
    """Store ``values`` at ``entry`` over older entries; skip on OSError."""
    older = re.compile(re.escape(path.name) + r"\.[0-9a-f]{64}\.v[0-9]+\.npy")
    with contextlib.suppress(OSError):
        with _replacing(entry, "wb") as handle:
            np.save(handle, values, allow_pickle=False)
        for other in entry.parent.iterdir():
            if other != entry and older.fullmatch(other.name):
                other.unlink(missing_ok=True)


def _usable_cpus():
    """CPUs this process may run on; 1 where it cannot fork write workers,
    because the platform has no ``fork`` or the process is daemonic."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _span_count(nbytes):
    """``min(usable CPUs, nbytes // MIN_SPAN_BYTES)``, at least one."""
    return max(1, min(_usable_cpus(), nbytes // MIN_SPAN_BYTES))


def _in_spans(work, jobs):
    """``[work(*args) for args in jobs]``: the first job in this process,
    the others in forked workers. ``fork`` because ``spawn`` and
    ``forkserver`` import the package again in every worker (about 0.55 s);
    the workers run only text code, never BLAS."""
    if len(jobs) == 1:
        return [work(*jobs[0])]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(jobs) - 1, mp_context=fork) as pool:
        rest = [pool.submit(work, *args) for args in jobs[1:]]
        return [work(*jobs[0])] + [future.result() for future in rest]


def _parse_body(path, start, labels, width):
    """The values of the body of ``path`` from byte ``start``.

    The body is decoded with universal newlines and blank lines are
    skipped. Each line is cut at its first comma: the label goes to a
    list, the rest to one ``np.loadtxt`` call. The parse fails if there
    is no row, a byte is not UTF-8, a field does not parse, a row has
    another width or no numbers, or a value is not finite;
    :func:`_raise_body_fault` then finds the faulty row, or else checks
    the labels and widths parsed.
    """
    found = []

    def fields(lines):
        for line in lines:
            if line != "\n":
                label, _, rest = line.partition(",")
                if not rest or rest.isspace():  # np.loadtxt only warns
                    raise ValueError(f"row {label!r} holds no numbers")
                found.append(label)
                yield rest

    with path.open(encoding="utf-8") as text:
        text.buffer.seek(start)
        rows = fields(text)
        try:  # UnicodeDecodeError is a ValueError
            first = next(rows, None)
            values = None if first is None else np.loadtxt(
                itertools.chain([first], rows), delimiter=",",
                quotechar='"', comments=None, ndmin=2)
        except ValueError:
            values = None
    # The extremes are finite only if every value is; they need no mask.
    if values is not None and (len(values) != len(found) or not np.isfinite(
            [values.min(), values.max()]).all()):
        values = None
    _raise_body_fault(path, _streamed_rows(path, start) if values is None
                      else ((label, values.shape[1] + 1, ()) for label in found),
                      labels, width)
    if values is None:
        raise SchemaError(f"{path}: not an ASCII decimal table")
    return values


def _streamed_rows(path, start):
    """``(label, column count, tokens to check)`` per data row of ``path``
    from byte ``start``, a label being the text before the first comma,
    streamed line by line with a byte that is not UTF-8 kept as a
    surrogate. A row of ASCII tokens without ``_`` that ``float`` reads to
    a finite sum passes :func:`_parse_float` on each token, so it has none
    to check."""
    with path.open(encoding="utf-8", errors="surrogateescape",
                   newline="") as text:
        text.buffer.seek(start)
        for line in text:
            line = line.rstrip("\r\n")
            if not line:
                continue
            # Without quotes, str.split cuts a line as csv.reader does.
            cells = next(csv.reader([line])) if '"' in line else line.split(",")
            tokens, joined = cells[1:], "".join(cells[1:])
            try:
                plain = (joined.isascii() and "_" not in joined
                         and math.isfinite(sum(map(float, tokens))))
            except ValueError:
                plain = False
            yield line.partition(",")[0], len(cells), () if plain else tokens


def _raise_body_fault(path, rows, labels, width):
    """Raise the ``SchemaError`` naming the first faulty row of ``rows``,
    checking each for a byte that is not UTF-8, for ``width`` columns, for
    a label left in ``labels``, for that label, then each token with
    :func:`_parse_float`."""
    count = 0
    for count, (label, columns, tokens) in enumerate(rows, start=1):
        _check_utf8(label + "".join(tokens), f"{path} row {count}")
        if columns != width:
            raise SchemaError(
                f"{path} row {count}: {columns} columns, expected {width}")
        if count > len(labels):
            count += sum(1 for _ in rows)
            break
        if label != labels[count - 1]:
            raise SchemaError(f"{path} row {count}: label {label!r}, "
                              f"expected {labels[count - 1]!r}")
        where = f"{path} row {label}"
        for token in tokens:
            _parse_float(token, where)
    if count != len(labels):
        raise SchemaError(
            f"{path}: expected {len(labels)} data rows, found {count}")


def save_icio(icio: IcioTable, path):
    """Write a table in the canonical on-disk form. :func:`_in_spans`
    formats the rows in row-aligned spans, as many as :func:`_span_count`
    gives for their float64 bytes."""
    out = ["#countries: " + ",".join(icio.countries),
           "#industries: " + ",".join(icio.industries)]
    if icio.year is not None:
        out.append(f"#year: {icio.year}")
    labels = icio.row_labels()
    out.append(",".join(["row"] + labels
                        + [f"FD:{c}" for c in icio.countries] + ["OUT"]))
    count = _span_count(icio.Z.nbytes + icio.F.nbytes + icio.x.nbytes)
    cuts = list(dict.fromkeys(i * len(labels) // count
                              for i in range(count + 1)))
    parts = _in_spans(_format_rows, [
        (labels[a:b], icio.Z[a:b], icio.F[a:b], icio.x[a:b])
        for a, b in zip(cuts, cuts[1:])])
    _atomic_write(path, "\n".join(out) + "\n",
                  *itertools.chain.from_iterable(parts))


def _format_rows(labels, Z, F, x):
    """Data lines, each ending in ``\\n``, of the rows ``Z``, ``F``, ``x``."""
    return [",".join([label, *map(_fmt, z.tolist()), *map(_fmt, f.tolist()),
                      _fmt(total)]) + "\n"
            for label, z, f, total in zip(labels, Z, F, x.tolist())]


# ---------------------------------------------------------------------------
# Emissions
# ---------------------------------------------------------------------------

EMISSIONS_HEADER = ["country", "industry", "tonnes"]


def load_emissions_vector(path, icio: IcioTable) -> EmissionIntensity:
    """Direct emissions per (country, industry), converted to intensities.

    Intensity is tonnes per thousand USD of gross output; zero-output
    industries get zero intensity so block indexing stays stable.
    """
    path = Path(path)
    seen = {}
    for line, row in _read_records(path, EMISSIONS_HEADER):
        key = (row[0].strip(), row[1].strip())
        if key in seen:
            raise DuplicateKey(f"{path}: duplicate record for {key}")
        value = _parse_float(row[2], f"{path} line {line}")
        if value < 0:
            raise NegativeEmission(f"{path}: negative emissions for {key}")
        seen[key] = value

    tonnes = np.empty(len(icio.x))
    for i, (c, s) in enumerate((c, s) for c in icio.countries
                               for s in icio.industries):
        if (c, s) not in seen:
            raise MissingRow(f"{path}: no emissions record for ({c}, {s})")
        tonnes[i] = seen[(c, s)]
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(icio.x > 0, tonnes / np.where(icio.x > 0, icio.x, 1.0), 0.0)
    return EmissionIntensity(icio.countries, icio.industries, e)


def save_emissions(icio: IcioTable, tonnes, path):
    keys = itertools.product(icio.countries, icio.industries)
    _atomic_write(path, ",".join(EMISSIONS_HEADER) + "\n", *(
        f"{c},{s},{_fmt(t)}\n" for (c, s), t in zip(keys, tonnes, strict=True)))


# ---------------------------------------------------------------------------
# Indicator panels
# ---------------------------------------------------------------------------

INDICATOR_HEADER = ["country", "year", "variable", "value", "unit"]


@dataclass(frozen=True)
class IndicatorPanel:
    """Long-format indicator records keyed by (country, year, variable)."""

    records: tuple  # (country, year, variable, value, unit)

    def __post_init__(self):
        seen = set()
        for country, year, variable, _, _ in self.records:
            key = (country, int(year), variable)
            if key in seen:
                raise DuplicateKey(f"duplicate indicator record {key}")
            seen.add(key)


def normalize_variable_name(name: str) -> str:
    canon = name.strip().upper()
    canon = VARIABLE_ALIASES.get(canon, canon)
    if canon in INDICATOR_VARIABLES:
        return canon
    raise UnknownVariableName(
        f"unknown indicator {name!r}; expected one of {INDICATOR_VARIABLES}"
    )


def load_indicator_panel(path) -> IndicatorPanel:
    path = Path(path)
    records = []
    for line, row in _read_records(path, INDICATOR_HEADER):
        country = row[0].strip()
        year = _parse_int(row[1], f"{path} line {line}")
        variable = normalize_variable_name(row[2])
        value = _parse_float(row[3], f"{path} line {line}")
        records.append((country, year, variable, value, row[4].strip()))
    return IndicatorPanel(tuple(records))


def save_indicator_panel(indicators: IndicatorPanel, path):
    _atomic_write(path, ",".join(INDICATOR_HEADER) + "\n", *(
        f"{country},{year},{variable},{_fmt(value)},{unit}\n"
        for country, year, variable, value, unit in sorted(indicators.records)))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Paths, sample definition, and estimation switches for one run."""

    data_dir: Path
    icio_pattern: str
    emissions_pattern: str
    indicators: str
    years: tuple
    sample: tuple
    oecd: tuple
    manufacturing: tuple = DEFAULT_MANUFACTURING
    log_base: float = 10.0
    # Opt-in additive shift applied to the stringency index before its
    # log; by default non-positive levels are a hard failure.
    esi_shift: float = None
    fgls_scheme: str = "ar1+panel-heteroscedastic"
    instrument: str = "lagged-difference"
    output_dir: Path = Path("out")
    source_path: Path = None

    def __post_init__(self):
        if not self.years:
            raise ConfigError("config declares no years")
        if not self.sample:
            raise ConfigError("config declares no sample countries")
        for name in ("sample", "oecd", "manufacturing"):
            if twice := repeated(getattr(self, name)):
                raise ConfigError(f"{name} lists {', '.join(twice)} more than once")
        for before, year in zip(self.years, self.years[1:]):
            if year <= before:
                raise ConfigError(f"years must increase: {year} follows {before}")
        extra = set(self.oecd) - set(self.sample)
        if extra:
            raise ConfigError(
                f"OECD flags name countries outside the sample: {sorted(extra)}"
            )
        if self.fgls_scheme not in COVARIANCE_SCHEMES:
            raise ConfigError(f"unknown fgls_scheme {self.fgls_scheme!r}")
        if self.instrument not in INSTRUMENT_VARIANTS:
            raise ConfigError(f"unknown instrument {self.instrument!r}")

    @property
    def non_oecd(self):
        return tuple(c for c in self.sample if c not in set(self.oecd))

    def icio_path(self, year) -> Path:
        return self.data_dir / self.icio_pattern.format(year=year)

    def emissions_path(self, year) -> Path:
        return self.data_dir / self.emissions_pattern.format(year=year)

    @property
    def indicators_path(self) -> Path:
        return self.data_dir / self.indicators


def _parse_years(text: str):
    text = text.strip()
    if "-" in text and "," not in text:
        lo, _, hi = text.partition("-")
        lo, hi = _parse_int(lo, "years"), _parse_int(hi, "years")
        if hi < lo:
            raise ConfigError(f"year range {text!r} is reversed")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_int(tok, "years") for tok in text.split(",") if tok.strip())


def _parse_list(text: str):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def parse_log_base(token) -> float:
    token = str(token).strip().lower()
    if token in ("e", "ln", "natural"):
        return math.e
    try:
        base = _parse_float(token, "log base")
    except SchemaError as exc:
        raise ConfigError(f"{exc}; expected a finite number or 'e'") from None
    if base <= 0 or base == 1:
        raise ConfigError(f"log base {base} is not usable")
    return base


def load_config(path, data_dir=None, output_dir=None, log_base=None) -> RunConfig:
    """Read a sectioned key = value config file, applying CLI overrides.

    The data directory resolves as: explicit override, then the config's
    own value, then the GVCCARBON_DATA_DIR environment variable, then the
    config file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    parser = ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    def get(section, option, fallback=None):
        return parser.get(section, option, fallback=fallback)

    for section in ("data", "sample"):
        if not parser.has_section(section):
            raise ConfigError(f"{path}: missing [{section}] section")

    if data_dir is not None:
        base = Path(data_dir)
    elif get("data", "dir") is not None:
        base = Path(get("data", "dir"))
        if not base.is_absolute():
            base = path.parent / base
    elif os.environ.get(DATA_DIR_ENV):
        base = Path(os.environ[DATA_DIR_ENV])
    else:
        base = path.parent

    years_text = get("data", "years")
    if years_text is None:
        raise ConfigError(f"{path}: [data] years is required")
    sample = _parse_list(get("sample", "countries", ""))
    oecd = _parse_list(get("sample", "oecd", ""))
    manufacturing = _parse_list(get("variables", "manufacturing", ""))

    out = Path(output_dir) if output_dir is not None else Path(
        get("output", "dir", RunConfig.output_dir)
    )
    shift_text = get("variables", "esi_shift")
    return RunConfig(
        data_dir=base,
        icio_pattern=get("data", "icio_pattern", "icio_{year}.csv"),
        emissions_pattern=get("data", "emissions_pattern", "emissions_{year}.csv"),
        indicators=get("data", "indicators", "indicators.csv"),
        years=_parse_years(years_text),
        sample=sample,
        oecd=oecd,
        manufacturing=manufacturing or DEFAULT_MANUFACTURING,
        log_base=parse_log_base(log_base if log_base is not None
                                else get("variables", "log_base",
                                         RunConfig.log_base)),
        esi_shift=None if shift_text is None
        else _parse_float(shift_text, f"{path} esi_shift"),
        fgls_scheme=get("estimation", "fgls_scheme", RunConfig.fgls_scheme),
        instrument=get("estimation", "instrument", RunConfig.instrument),
        output_dir=out,
        source_path=path,
    )


def check_sample(config: RunConfig, icio: IcioTable):
    """Every sampled country, and at least one manufacturing code (the
    others are skipped when aggregating), must exist in the loaded table."""
    missing = set(config.sample) - set(icio.countries)
    if missing:
        raise ConfigError(
            f"sample countries missing from the IO table: {sorted(missing)}"
        )
    if not set(config.manufacturing) & set(icio.industries):
        raise ConfigError(
            f"none of the manufacturing codes {list(config.manufacturing)} "
            f"is an industry of the IO table {list(icio.industries)}")
