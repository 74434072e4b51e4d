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
finite. An ICIO body is read once, in this process, by one ``np.loadtxt``
call per ``CHUNK_ROWS`` rows. A ``SchemaError`` names the file, and for a
body the first faulty row. A valid body is kept beside its table in
``__gvccarbon_cache__``, by sha256, so only the first load of a set of
bytes parses them. Each input's sha256 is kept there too, with the file's
stamp and the entry's writer; :func:`_hash_input` reads it back, not the
file, while the stamp holds, if this run wrote it or git's "racily clean"
rule allows. So a run hashes an input at most once, and that digest keys
the kept entries and goes into a report's manifest. ``workflow`` keeps each
year's solved accounts there too, through the same helpers.

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
import io
import itertools
import math
import operator
import os
import re
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DuplicateKey,
    MissingRow,
    NegativeEmission,
    SchemaError,
    UnknownVariableName,
    prefixed,
)
from .estimators import (
    COVARIANCE_SCHEMES,
    INSTRUMENT_VARIANTS,
    LAGGED_DIFFERENCE,
)
from .mrio import EmissionIntensity, IcioTable, per_output, repeated, row_labels
from .panel import DEFAULT_MANUFACTURING, INDICATOR_VARIABLES

DATA_DIR_ENV = "GVCCARBON_DATA_DIR"
_at_line = "{} line {}".format  # "<file> line <n>": the one home of a place

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


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV with LF line ends, quoted where needed:
    the dialect :func:`_read_records` reads; only ICIO tables are written otherwise."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


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
    """Yield ``(where, cells)`` for each data row of a headed CSV file,
    ``where`` the :func:`_at_line` the row ends on.

    The first row must equal ``header`` exactly, empty rows are skipped,
    and every other row must have one cell per header column. A missing
    file, a wrong header, a byte that is not UTF-8, a row of the wrong
    width or a cell over ``csv.field_size_limit()`` raises ``SchemaError``
    naming the file and, for a row, its line.
    """
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    with path.open(encoding="utf-8", errors="surrogateescape",
                   newline="") as handle:
        rows = csv.reader(handle)
        try:
            if next(rows, None) != header:
                raise SchemaError(
                    f"{path}: header must be {','.join(header)}")
            for row in rows:
                where = _at_line(path, rows.line_num)
                _check_utf8(",".join(row), where)
                if not row:
                    continue
                if len(row) != len(header):
                    raise SchemaError(f"{where}: expected {len(header)} columns")
                yield where, row
        except csv.Error as exc:
            raise SchemaError(f"{_at_line(path, rows.line_num)}: {exc}") from None


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

#: Data rows of an ICIO body parsed by one ``np.loadtxt`` call. A chunk's
#: text is held until its rows pass, so a parse of a 77 x 45 body peaks
#: about 1 MB above its values with 8 rows, 5 MB with 32.
CHUNK_ROWS = 8

#: Where each table's parsed body and solved accounts are kept, as
#: ``<file name>.<sha256 hex>.<tag>.npy`` (change a tag with what writes
#: its entries), and each input's stamp and sha256, as ``<file name>.sha256``.
CACHE_DIR = "__gvccarbon_cache__"
BODY_TAG = "v1"
ACCOUNTS_TAG = "accounts.v1"
#: A file whose stamp is unchanged holds the bytes it held; ``cp -p`` keeps
#: the inode, size and mtime of a file it overwrites, but not the ctime.
_STAMP = operator.attrgetter("st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
#: What follows ``<file name>.`` in an entry's name: a sha256 hex, then
#: its tag (``v1`` or ``accounts.v1``), whose number the group leaves out.
_ENTRY_TAIL = re.compile(r"[0-9a-f]{64}\.([a-z.]*v)[0-9]+\.npy")
#: FAT's timestamp step, in ns, the coarsest a data directory may have. A
#: file changed in the step its digest entry was begun in may keep its
#: stamp, so another run's entry counts only if younger than the file's
#: mtime and ctime by more (git's "racily clean" rule, racy-git.txt).
TIMESTAMP_STEP_NS = 2 * 10**9
#: The writer named in the digest entries this interpreter writes, drawn
#: once and inherited by forked children, which trust each other's entries.
_WRITER = os.urandom(8).hex()


class IcioHead(NamedTuple):
    """What the metadata and header lines of a table declare."""

    countries: tuple
    industries: tuple
    year: int        # None without a ``#year`` line
    body_start: int  # byte offset of the first data row


def _icio_header(countries, industries):
    """The header line's cells: ``row``, the row labels, one ``FD:`` column
    per country, then ``OUT``."""
    return (["row"] + row_labels(countries, industries)
            + [f"FD:{c}" for c in countries] + ["OUT"])


def read_icio_head(path) -> IcioHead:
    """Read and check the metadata and header lines of a table, counted
    in bytes; the body is not read."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    meta, line_of = {}, {}
    body_start = 0
    # newline="" splits lines at any line end without translating it, so
    # the encoded lines add up to the byte offset of the body.
    with path.open(encoding="utf-8", errors="surrogateescape",
                   newline="") as handle:
        for number, line in enumerate(handle, start=1):
            _check_utf8(line, _at_line(path, number))
            body_start += len(line.encode("utf-8"))
            if not line.startswith("#"):
                header = next(csv.reader([line]), [])
                break
            key, _, value = line[1:].partition(":")
            key = key.strip()
            if key in line_of and key in ("countries", "industries", "year"):
                raise SchemaError(f"{path}: metadata line '#{key}:' on line "
                                  f"{line_of[key]} is repeated on line {number}")
            meta[key], line_of[key] = value.strip(), number
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

    expected_header = _icio_header(countries, industries)
    if header != expected_header:
        raise SchemaError(
            f"{path}: header must declare {len(expected_header)} columns "
            "(row, one per country-industry, one FD per country, OUT)")
    return IcioHead(countries, industries, year, body_start)


def load_icio(path) -> IcioTable:
    """Parse and validate one inter-country IO table file: the head, then
    the kept or parsed body."""
    path = Path(path)
    head = read_icio_head(path)
    stamp, sha256 = _hash_input(path)
    labels = row_labels(head.countries, head.industries)
    n, nk = len(head.countries), len(labels)
    # A row is its label, then nk cells of Z, n of final demand and OUT.
    kept = _cached_array(path, sha256, BODY_TAG, (nk, nk + n + 1))
    values = kept if kept is not None else _parse_body(
        path, head.body_start, labels, nk + n + 2)
    with prefixed(path, SchemaError):  # the table checks do not know the file
        table = IcioTable(head.countries, head.industries, values[:, :nk],
                          values[:, nk:nk + n], values[:, -1], year=head.year)
    if kept is None:
        _keep_array(path, sha256, BODY_TAG, values, {path: stamp})
    return table


def _file_sha256(path):
    """The sha256 hex of the bytes of ``path``, read in 1 MiB blocks,
    never whole."""
    digest, block = hashlib.sha256(), bytearray(2**20)
    with open(path, "rb", buffering=0) as handle:
        while count := handle.readinto(block):
            digest.update(memoryview(block)[:count])
    return digest.hexdigest()


def _hash_input(path):
    """``(stamp, sha256 hex)`` of ``path``, the one digest of an input: the
    one in its entry while the stamp matches, if this interpreter wrote it
    or ``TIMESTAMP_STEP_NS`` allows; else a new hash, kept if it held."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"no such file: {path}")
    stamp, entry = _STAMP(path.stat()), _cache_entry(path, "sha256")
    line = " ".join(map(str, stamp))
    with (contextlib.suppress(OSError, ValueError),
          open(entry, encoding="ascii") as handle):
        kept = re.fullmatch(r"([0-9a-f]{16}) ([-0-9 ]+) ([0-9a-f]{64})\n",
                            handle.read(256))
        lead = os.fstat(handle.fileno()).st_mtime_ns - max(stamp[2:])
        if kept and kept[2] == line and (kept[1] == _WRITER
                                         or lead > TIMESTAMP_STEP_NS):
            return stamp, kept[3]
    sha256 = None
    with contextlib.suppress(OSError), _replacing(entry) as handle:
        made = os.fstat(handle.fileno())  # the racy rule's time: pre-read
        sha256 = _file_sha256(path)
        if _STAMP(path.stat()) != stamp:
            raise OSError(f"{path} changed while it was hashed")  # no entry
        handle.write(f"{_WRITER} {line} {sha256}\n")
        handle.flush()
        os.utime(handle.fileno(), ns=(made.st_atime_ns, made.st_mtime_ns))
    return stamp, sha256 or _file_sha256(path)  # no entry begun, or no read


def _cache_entry(path, *name):
    return path.parent / CACHE_DIR / ".".join([path.name, *name])


def _cached_array(path, digest, tag, shape):
    """The float64 array of ``shape`` kept for ``path`` under ``digest``
    and ``tag``, else None."""
    try:
        with open(_cache_entry(path, digest, tag, "npy"), "rb") as handle:
            values = np.lib.format.read_array(handle, allow_pickle=False)
    except (OSError, ValueError):
        return None
    return values if (values.dtype, values.shape) == (float, shape) else None


def _keep_array(path, digest, tag, values, stamps):
    """Keep ``values`` for ``path`` under ``digest`` and ``tag``, over the
    older entries of its file name and tag, if each file in ``stamps``
    still has its stamp; skip on OSError."""
    entry = _cache_entry(path, digest, tag, "npy")
    prefix, kind = f"{path.name}.", tag.rstrip("0123456789")
    with contextlib.suppress(OSError):
        if any(_STAMP(Path(file).stat()) != stamp
               for file, stamp in stamps.items()):
            return
        with _replacing(entry, "wb") as handle:
            np.save(handle, values, allow_pickle=False)
        for name in os.listdir(entry.parent):
            older = (name.startswith(prefix) and name != entry.name
                     and _ENTRY_TAIL.fullmatch(name, len(prefix)))
            if older and older[1] == kind:
                (entry.parent / name).unlink(missing_ok=True)


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _usable_cpus():
    """CPUs this process may run on; 1 where it cannot fork write workers,
    because the platform has no ``fork`` or the process is daemonic."""
    import multiprocessing  # only the forked writer needs it

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return _cpu_count()


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
    import multiprocessing  # only the forked writer needs these
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(jobs) - 1, mp_context=fork) as pool:
        rest = [pool.submit(work, *args) for args in jobs[1:]]
        return [work(*jobs[0])] + [future.result() for future in rest]


def _parse_body(path, start, labels, width):
    """The values of the body of ``path`` from byte ``start``, read once.

    The body is decoded with universal newlines, a byte that is not UTF-8
    kept as a surrogate, and blank lines are skipped. The other lines go
    to :func:`_chunk_values` ``CHUNK_ROWS`` at a time, each block into its
    rows of the result; the first chunk that fails goes to
    :func:`_raise_row_fault`. Every chunk before it passed every check.
    """
    values, count = np.empty((len(labels), width - 1)), 0
    with path.open(encoding="utf-8", errors="surrogateescape") as text:
        text.buffer.seek(start)
        rows = (line for line in text if line != "\n")
        while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
            block = _chunk_values(chunk, labels[count:count + len(chunk)], width)
            if block is None:
                _raise_row_fault(path, chunk, count, rows, labels, width)
            values[count:count + len(chunk)] = block
            count += len(chunk)
    if count != len(labels):
        raise SchemaError(
            f"{path}: expected {len(labels)} data rows, found {count}")
    return values


def _chunk_values(chunk, labels, width):
    """The numbers of the lines ``chunk`` by one ``np.loadtxt`` call, or
    None unless the lines carry ``labels`` and ``width - 1`` finite numbers
    each. Each line is cut at its first comma: the label before it, the
    numbers after it."""
    def numbers():
        for line, label in zip(chunk, labels, strict=True):
            head, _, rest = line.partition(",")
            if head != label or not rest or rest.isspace():  # loadtxt warns
                raise ValueError
            yield rest

    try:
        block = np.loadtxt(numbers(), delimiter=",", quotechar='"',
                           comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape == (len(chunk), width - 1) and np.isfinite(block).all():
        return block
    return None


def _raise_row_fault(path, chunk, before, rows, labels, width):
    """Raise the ``SchemaError`` naming the first faulty line of ``chunk``,
    data row ``before + 1`` on, checking each for a byte that is not UTF-8,
    for ``width`` columns, for a label left in ``labels`` (else counting
    the ``rows`` left), for that label, then each token with
    :func:`_parse_float`."""
    for count, line in enumerate(chunk, start=before + 1):
        line = line.rstrip("\n")
        _check_utf8(line, f"{path} row {count}")
        try:
            cells = next(csv.reader([line]))
        except csv.Error as exc:  # a cell over csv.field_size_limit()
            raise SchemaError(f"{path} row {count}: {exc}") from None
        if len(cells) != width:
            raise SchemaError(
                f"{path} row {count}: {len(cells)} columns, expected {width}")
        if count > len(labels):
            found = before + len(chunk) + sum(1 for _ in rows)
            raise SchemaError(
                f"{path}: expected {len(labels)} data rows, found {found}")
        label = line.partition(",")[0]
        if label != labels[count - 1]:
            raise SchemaError(f"{path} row {count}: label {label!r}, "
                              f"expected {labels[count - 1]!r}")
        for token in cells[1:]:
            _parse_float(token, f"{path} row {label}")
    raise SchemaError(f"{path}: not an ASCII decimal table")


def save_icio(icio: IcioTable, path):
    """Write a table in the canonical on-disk form. :func:`_in_spans`
    formats the rows in row-aligned spans, as many as :func:`_span_count`
    gives for their float64 bytes."""
    out = ["#countries: " + ",".join(icio.countries),
           "#industries: " + ",".join(icio.industries)]
    if icio.year is not None:
        out.append(f"#year: {icio.year}")
    out.append(",".join(_icio_header(icio.countries, icio.industries)))
    labels = icio.row_labels()
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
    industries get zero intensity so block indexing stays stable. Each
    row of the table needs one record, and a record must name a row.
    """
    path = Path(path)
    rows = {key: i for i, key in enumerate(
        itertools.product(icio.countries, icio.industries))}
    tonnes = np.full(len(rows), np.nan)  # unread; _parse_float never gives NaN
    for where, row in _read_records(path, EMISSIONS_HEADER):
        key = (row[0].strip(), row[1].strip())
        if key not in rows:
            raise SchemaError(f"{where}: record for {key} names no row of the table")
        if not math.isnan(tonnes[rows[key]]):
            raise DuplicateKey(f"{where}: duplicate record for {key}")
        value = _parse_float(row[2], where)
        if value < 0:
            raise NegativeEmission(f"{where}: negative emissions for {key}")
        tonnes[rows[key]] = value
    if np.isnan(tonnes).any():
        c, s = list(rows)[np.argmax(np.isnan(tonnes))]
        raise MissingRow(f"{path}: no emissions record for ({c}, {s})")
    return EmissionIntensity(icio.countries, icio.industries,
                             per_output(tonnes, icio.x))


def save_emissions(icio: IcioTable, tonnes, path):
    keys = itertools.product(icio.countries, icio.industries)
    _atomic_write(path, csv_text(EMISSIONS_HEADER, (
        (c, s, _fmt(t)) for (c, s), t in zip(keys, tonnes, strict=True))))


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


def normalize_variable_name(name: str, where: str) -> str:
    """The canonical code of the indicator ``name``, read at ``where``."""
    canon = name.strip().upper()
    canon = VARIABLE_ALIASES.get(canon, canon)
    if canon in INDICATOR_VARIABLES:
        return canon
    raise UnknownVariableName(f"{where}: unknown indicator {name!r}; "
                              f"expected one of {INDICATOR_VARIABLES}")


def load_indicator_panel(path) -> IndicatorPanel:
    path = Path(path)
    records = []
    for where, row in _read_records(path, INDICATOR_HEADER):
        country = row[0].strip()
        year = _parse_int(row[1], where)
        variable = normalize_variable_name(row[2], where)
        value = _parse_float(row[3], where)
        records.append((country, year, variable, value, row[4].strip()))
    with prefixed(path, DuplicateKey):  # the panel's check does not know the file
        return IndicatorPanel(tuple(records))


def save_indicator_panel(indicators: IndicatorPanel, path):
    _atomic_write(path, csv_text(INDICATOR_HEADER, (
        (country, year, variable, _fmt(value), unit)
        for country, year, variable, value, unit in sorted(indicators.records))))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Paths, sample definition, and estimation switches for one run."""

    data_dir: Path
    years: tuple
    sample: tuple
    oecd: tuple
    icio_pattern: str = "icio_{year}.csv"
    emissions_pattern: str = "emissions_{year}.csv"
    indicators: str = "indicators.csv"
    manufacturing: tuple = DEFAULT_MANUFACTURING
    log_base: float = 10.0
    # Opt-in additive shift applied to the stringency index before its
    # log; by default non-positive levels are a hard failure.
    esi_shift: float = None
    fgls_scheme: str = "ar1+panel-heteroscedastic"
    instrument: str = LAGGED_DIFFERENCE
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
        icio_pattern=get("data", "icio_pattern", RunConfig.icio_pattern),
        emissions_pattern=get("data", "emissions_pattern",
                              RunConfig.emissions_pattern),
        indicators=get("data", "indicators", RunConfig.indicators),
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
    others are skipped when aggregating), must be in ``icio``, a table or
    the :class:`IcioHead` of one."""
    missing = set(config.sample) - set(icio.countries)
    if missing:
        raise ConfigError(
            f"sample countries missing from the IO table: {sorted(missing)}"
        )
    if not set(config.manufacturing) & set(icio.industries):
        raise ConfigError(
            f"none of the manufacturing codes {list(config.manufacturing)} "
            f"is an industry of the IO table {list(icio.industries)}")
