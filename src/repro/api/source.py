"""Data sources: one ingest/calibration interface over every input kind.

The optimizer and the loader want the same two views of the input — a
parsed *sample* for selectivity estimation and cost-model calibration, and
the *raw record stream* for ingest — but the repository grew three ways to
provide them (``repro.data`` generators, materialized line lists, files on
disk), each wired slightly differently in every example.  A
:class:`DataSource` provides both views uniformly:

* :meth:`DataSource.sample` — parsed records, drawn *independently* of the
  ingest stream (sampling never consumes records the load would ship);
* :meth:`DataSource.records` — serialized single-line JSON records in
  arrival order, the exact stream a CIAO client processes.

:func:`as_source` coerces whatever a caller has — a dataset name, a
:class:`~repro.data.base.DatasetGenerator`, an iterable of raw lines, a
JSONL or CSV path — so :class:`~repro.api.session.CiaoSession` has one
front door for input.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Union)

from ..data.base import DatasetGenerator
from ..data.randomness import DEFAULT_SEED
from ..rawjson.parser import loads
from ..rawjson.writer import dump_record

if TYPE_CHECKING:
    from ..rawcsv.codec import CsvCodec


class DataSource:
    """One input stream: a parsed sample plus raw records for ingest."""

    #: Identifier used in reports and table names.
    name: str = "source"

    def records(self) -> Iterator[str]:
        """The raw record stream (single-line JSON, arrival order)."""
        raise NotImplementedError

    def sample(self, n: int) -> List[Dict[str, Any]]:
        """*n* parsed records for estimation, independent of the stream."""
        raise NotImplementedError

    def average_record_length(self, sample_size: int = 200) -> float:
        """Mean serialized record length ``len(t)`` for the cost model."""
        sample = self.sample(sample_size)
        if not sample:
            raise ValueError(
                f"source {self.name!r} yielded an empty sample"
            )
        lengths = [len(dump_record(record)) for record in sample]
        return sum(lengths) / len(lengths)

    def count(self) -> Optional[int]:
        """Number of records, if knowable without consuming the stream."""
        return None


class GeneratorSource(DataSource):
    """A :mod:`repro.data` generator bounded to *n_records*."""

    def __init__(self, generator: DatasetGenerator, n_records: int):
        if n_records < 1:
            raise ValueError(
                f"n_records must be >= 1, got {n_records}"
            )
        self.generator = generator
        self.n_records = n_records
        self.name = generator.name

    def records(self) -> Iterator[str]:
        return self.generator.raw_lines(self.n_records)

    def sample(self, n: int) -> List[Dict[str, Any]]:
        # DatasetGenerator.sample already draws from an independent
        # child stream, so estimation never consumes ingest records.
        return self.generator.sample(n)

    def average_record_length(self, sample_size: int = 200) -> float:
        return self.generator.average_record_length(sample_size)

    def count(self) -> int:
        return self.n_records

    def with_count(self, n_records: int) -> "GeneratorSource":
        """The same generator re-bounded to *n_records*."""
        return GeneratorSource(self.generator, n_records)


class LineSource(DataSource):
    """Materialized raw JSON lines (the common benchmark shape)."""

    def __init__(self, lines: Iterable[str], name: str = "lines"):
        self.lines: List[str] = list(lines)
        if not self.lines:
            raise ValueError("a line source needs at least one record")
        self.name = name

    def records(self) -> Iterator[str]:
        return iter(self.lines)

    def sample(self, n: int) -> List[Dict[str, Any]]:
        return [loads(line) for line in self.lines[:n]]

    def count(self) -> int:
        return len(self.lines)


class JsonFileSource(DataSource):
    """A newline-delimited JSON file, streamed without materializing."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(str(self.path))
        self.name = self.path.stem

    def records(self) -> Iterator[str]:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if line:
                    yield line

    def sample(self, n: int) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for line in self.records():
            out.append(loads(line))
            if len(out) >= n:
                break
        return out


class CsvFileSource(DataSource):
    """A CSV file re-framed as JSON records through a :class:`CsvCodec`.

    CIAO's pushdown machinery speaks newline-delimited JSON; CSV feeds
    enter through the codec (§IV-A's "other text-based formats" note):
    each line is decoded to a record and re-serialized as JSON for the
    ingest stream, while samples are the decoded records directly.
    """

    def __init__(self, path: Union[str, Path], codec: CsvCodec,
                 skip_header: bool = False):
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(str(self.path))
        self.codec = codec
        self.skip_header = skip_header
        self.name = self.path.stem

    def _lines(self) -> Iterator[str]:
        with self.path.open("r", encoding="utf-8") as handle:
            for i, line in enumerate(handle):
                if i == 0 and self.skip_header:
                    continue
                line = line.rstrip("\n")
                if line:
                    yield line

    def records(self) -> Iterator[str]:
        for line in self._lines():
            yield dump_record(self.codec.decode_line(line))

    def sample(self, n: int) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for line in self._lines():
            out.append(self.codec.decode_line(line))
            if len(out) >= n:
                break
        return out


class LimitedSource(DataSource):
    """A view of another source truncated to its first *n_records*.

    How ``n_records`` applies to line/file sources: the record stream is
    cut (lazily — nothing past the cap is read), while sampling still
    sees only the covered prefix.
    """

    def __init__(self, inner: DataSource, n_records: int):
        if n_records < 1:
            raise ValueError(
                f"n_records must be >= 1, got {n_records}"
            )
        self.inner = inner
        self.n_records = n_records
        self.name = inner.name

    def records(self) -> Iterator[str]:
        return islice(self.inner.records(), self.n_records)

    def sample(self, n: int) -> List[Dict[str, Any]]:
        return self.inner.sample(min(n, self.n_records))

    def count(self) -> Optional[int]:
        # An unknown-length stream may hold fewer than the cap, so the
        # cap alone is not a record count.
        inner = self.inner.count()
        return None if inner is None else min(inner, self.n_records)


#: Anything :func:`as_source` accepts.
SourceLike = Union[DataSource, DatasetGenerator, str, Path, Iterable[str]]

#: Default record count when a dataset name/generator is given bare.
DEFAULT_N_RECORDS = 10_000


def as_source(obj: SourceLike, *,
              seed: int = DEFAULT_SEED,
              n_records: Optional[int] = None,
              codec: Optional[CsvCodec] = None) -> DataSource:
    """Coerce *obj* into a :class:`DataSource`.

    * a :class:`DataSource` passes through (``n_records`` re-bounds a
      generator source and truncates any other kind via
      :class:`LimitedSource`);
    * a :class:`~repro.data.base.DatasetGenerator` or dataset name
      (``"yelp"``/``"winlog"``/``"ycsb"``) wraps in a
      :class:`GeneratorSource` of *n_records* (default
      :data:`DEFAULT_N_RECORDS`);
    * a path to an existing ``.csv`` file (with *codec*) or any other
      text file (treated as JSONL) wraps the file;
    * any other iterable of strings wraps in a :class:`LineSource`.
    """
    if isinstance(obj, DataSource):
        if n_records is None:
            return obj
        if isinstance(obj, GeneratorSource):
            return obj.with_count(n_records)
        return LimitedSource(obj, n_records)
    if isinstance(obj, DatasetGenerator):
        return GeneratorSource(obj, n_records or DEFAULT_N_RECORDS)
    if isinstance(obj, (str, Path)):
        path = Path(obj)
        if isinstance(obj, str) and not path.exists():
            # Dataset names resolve through the generator registry;
            # make_generator raises a helpful KeyError for unknown ones.
            from ..data.registry import make_generator

            generator = make_generator(obj, seed=seed)
            return GeneratorSource(generator, n_records or DEFAULT_N_RECORDS)
        if path.suffix.lower() == ".csv":
            if codec is None:
                raise ValueError(
                    f"CSV source {path} needs a CsvCodec (column order "
                    f"and types); pass codec=..."
                )
            source: DataSource = CsvFileSource(path, codec)
        else:
            source = JsonFileSource(path)
    elif isinstance(obj, Iterable):
        source = LineSource(obj)
    else:
        raise TypeError(
            f"cannot build a DataSource from {type(obj).__name__}"
        )
    if n_records is not None:
        return LimitedSource(source, n_records)
    return source
