"""File ingestion: inter-country IO tables and emissions vectors, and a
year's path from :func:`year_files` to its kept accounts. The run config
and the indicator panels are read in ``workflow``, whose code no year runs.

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
call per ``CHUNK_ROWS`` rows; every load parses it. A ``SchemaError`` names
the file, and for a body the first faulty row. :func:`year_accounts`
keeps each year's accounts beside its table in ``__gvccarbon_cache__``,
one record of the five ``INDICATOR_KEYS`` grids and then the gap, keyed
by both inputs' sha256 and :func:`numerics`: the sources of ``errors``,
``ingest`` and ``mrio``, whose code alone solves a year (an edit to any
other module keeps every kept year), numpy and scipy with their BLAS,
the BLAS thread variables and the usable CPUs. Each input's sha256 is
kept there too, with the file's stamp and the entry's writer;
:func:`_hash_input` reads it back, not the file, while the stamp holds,
if this run wrote it or git's "racily clean" rule allows. So a run hashes
an input at most once, and that digest keys the kept accounts and goes
into a report's manifest.

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
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import mrio
from .errors import (
    ConfigError,
    DuplicateKey,
    MissingRow,
    NegativeEmission,
    NumericalError,
    SchemaError,
    prefixed,
)
from .mrio import EmissionIntensity, IcioTable, per_output, row_labels

_at_line = "{} line {}".format  # "<file> line <n>": the one home of a place


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


def _parse_list(text: str):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


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

#: Where each table's solved accounts are kept, as ``<file name>.<sha256
#: hex>.<ACCOUNTS_TAG>.npy`` (change the tag with what writes its entries),
#: and each input's stamp and sha256, as ``<file name>.sha256``.
CACHE_DIR = "__gvccarbon_cache__"
ACCOUNTS_TAG = "accounts.v1"
#: A file whose stamp is unchanged holds the bytes it held; ``cp -p`` keeps
#: the inode, size and mtime of a file it overwrites, but not the ctime.
_STAMP = operator.attrgetter("st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
#: What follows ``<file name>.`` in an array entry's name: a sha256 hex,
#: then any tag, so that the entries of older tags go too, such as the
#: parsed bodies (``v1``) that earlier versions kept.
_ENTRY_TAIL = re.compile(r"[0-9a-f]{64}\.[a-z.]*v[0-9]+\.npy")
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
    the body."""
    path = Path(path)
    head = read_icio_head(path)
    labels = row_labels(head.countries, head.industries)
    n, nk = len(head.countries), len(labels)
    # A row is its label, then nk cells of Z, n of final demand and OUT.
    values = _parse_body(path, head.body_start, labels, nk + n + 2)
    with prefixed(path, SchemaError):  # the table checks do not know the file
        return IcioTable(head.countries, head.industries, values[:, :nk],
                         values[:, nk:nk + n], values[:, -1], year=head.year)


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


def _read_or_solve(path, key, shape, solve, stamps):
    """The float64 array of ``shape`` kept for ``path`` under ``key``; else
    ``solve()``'s, kept there over every older array entry of its file name
    if each file in ``stamps`` still has its stamp. An entry that is not
    such an array counts as none; a failed write keeps nothing."""
    entry = _cache_entry(path, key, ACCOUNTS_TAG, "npy")
    with contextlib.suppress(OSError, ValueError), open(entry, "rb") as handle:
        values = np.lib.format.read_array(handle, allow_pickle=False)
        if (values.dtype, values.shape) == (float, shape):
            return values
    values = solve()
    prefix = f"{path.name}."
    with contextlib.suppress(OSError):
        if all(_STAMP(Path(file).stat()) == stamp
               for file, stamp in stamps.items()):
            with _replacing(entry, "wb") as handle:
                np.save(handle, values, allow_pickle=False)
            for name in os.listdir(entry.parent):
                if (name.startswith(prefix) and name != entry.name
                        and _ENTRY_TAIL.fullmatch(name, len(prefix))):
                    (entry.parent / name).unlink(missing_ok=True)
    return values


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
    with prefixed(path, SchemaError):  # the intensity check does not know the file
        return EmissionIntensity(icio.countries, icio.industries,
                                 per_output(tonnes, icio.x))


def save_emissions(icio: IcioTable, tonnes, path):
    keys = itertools.product(icio.countries, icio.industries)
    _atomic_write(path, csv_text(EMISSIONS_HEADER, (
        (c, s, _fmt(t)) for (c, s), t in zip(keys, tonnes, strict=True))))


# ---------------------------------------------------------------------------
# Kept year accounts
# ---------------------------------------------------------------------------

#: The environment variables that set how many threads the BLAS runs, and
#: on which of its kernels.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "OPENBLAS_CORETYPE")

#: The package's modules whose code runs in :func:`year_accounts`: the only
#: sources :func:`numerics` digests.
_YEAR_SOURCES = ("errors.py", "ingest.py", "mrio.py")


@functools.cache
def _sources_sha256(package):
    """sha256 hex over the name and sha256 of each of ``_YEAR_SOURCES`` in
    ``package``."""
    digest = hashlib.sha256()
    for name in _YEAR_SOURCES:
        digest.update(f"{name} {_file_sha256(Path(package) / name)}\n".encode())
    return digest.hexdigest()


@functools.cache
def _blas(module):
    """Name, version and configuration of the BLAS ``module`` (numpy or
    scipy) was built against."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26, scipy < 1.11 only print it
        return None
    return {key: blas.get(key)
            for key in ("name", "version", "openblas configuration")}


def numerics():
    """What the bytes of a year's accounts depend on besides its two input
    files: the ``_YEAR_SOURCES``, numpy and scipy with their BLAS
    (the gap runs on numpy's, the solve on scipy's), the BLAS thread
    variables and the usable CPUs. It keys the kept accounts, and a
    report's manifest records it."""
    return {
        "sources_sha256": _sources_sha256(Path(__file__).parent),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        "blas_variables": {name: os.environ.get(name)
                           for name in BLAS_VARIABLES},
        "cpus": _cpu_count(),
    }


def _accounts_key(table_sha256, emissions_sha256):
    """The sha256 hex that names the kept accounts of a table and an
    emissions file in this environment."""
    text = json.dumps([table_sha256, emissions_sha256, numerics()],
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def year_files(config, year):
    """The ``(table, emissions file)`` paths of ``year`` under a run
    config's ``data_dir``, by its ``icio_pattern`` and ``emissions_pattern``."""
    return tuple(config.data_dir / pattern.format(year=year)
                 for pattern in (config.icio_pattern, config.emissions_pattern))


def check_sample(config, icio: IcioTable):
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


def load_year(config, year, readers=sys.modules[__name__]):
    """One year's table and intensities, read by the module ``readers``'s
    ``load_icio`` and ``load_emissions_vector``; :func:`year_accounts`
    checks the table's head first."""
    table, emissions = year_files(config, year)
    icio = readers.load_icio(table)
    return icio, readers.load_emissions_vector(emissions, icio)


def year_accounts(config, year, readers=sys.modules[__name__]):
    """One year's accounts and their conservation gap.

    The table's head must declare ``year``, if it declares one, and hold
    the sample. Kept or solved, the accounts are built from the record
    :func:`_read_or_solve` gives, the ``INDICATOR_KEYS`` grids and then
    the gap, which is kept once every check has passed. A miss reads the
    year by ``readers.load_year(config, year, readers)``."""
    path, emissions = year_files(config, year)
    head = read_icio_head(path)
    if head.year is not None and head.year != year:
        raise SchemaError(f"{path}: #year {head.year} in a table read "
                          f"for {year}")
    check_sample(config, head)
    hashed = {file: _hash_input(file) for file in (path, emissions)}
    n, k = len(head.countries), len(head.industries)

    def solve():
        icio, intensity = readers.load_year(config, year, readers)
        with prefixed(path, NumericalError):  # the solves do not know the file
            model = mrio.build_model(icio)
            accounts = mrio.compute_accounts(icio, model, intensity)
            gap = mrio.conservation_gap(icio, model, intensity)
        return np.concatenate([*(accounts.indicator(key).ravel()
                                 for key in mrio.INDICATOR_KEYS), [gap]])

    record = _read_or_solve(
        path, _accounts_key(hashed[path][1], hashed[emissions][1]),
        (len(mrio.INDICATOR_KEYS) * n * k + 1,), solve,
        {file: stamp for file, (stamp, _) in hashed.items()})
    grids = dict(zip(mrio.INDICATOR_KEYS, record[:-1].reshape(-1, n, k)))
    return (mrio.EmbodiedAccounts(head.countries, head.industries,
                                  year=head.year, **grids),
            float(record[-1]))
