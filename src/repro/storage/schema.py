"""Schema model and inference for the Parquet-lite columnar format.

CIAO converts loaded JSON objects into a binary columnar layout (the paper
uses Parquet via Arrow C++; we implement the format from scratch).  JSON is
schemaless, so the writer infers a schema from the records it sees:

* scalar types map to typed columns (STRING / INT64 / FLOAT64 / BOOL);
* mixed numeric columns promote INT64 → FLOAT64;
* nested objects/arrays and irreconcilably mixed columns fall back to the
  JSON column type, which stores the value re-serialized as JSON text —
  lossless, queryable after re-parse, exactly how engines handle "schema
  drift" columns;
* every column is nullable (a JSON object may simply omit the key).

Both inference and coercion are column-major: a column's values are pulled
once (:func:`pull_columns`) and judged by their set of exact Python types.
The types the C JSON decoder produces map directly; any other type (a
subclass of ``int``, ``float`` or ``str``) keeps ``isinstance`` semantics,
and :func:`coerce_column` sends any type set it cannot pass through whole
to the per-value :func:`coerce_value`, so every :class:`SchemaError` is
the one a value-by-value writer raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..rawjson.writer import dumps_cell


class ColumnType(Enum):
    """Physical column types of Parquet-lite."""

    STRING = "string"
    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    JSON = "json"


@dataclass(frozen=True)
class Field:
    """One named, typed, always-nullable column."""

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fields need a name")


class SchemaError(ValueError):
    """A record does not fit the schema, or the schema is malformed."""


class Schema:
    """An ordered collection of fields with O(1) name lookup."""

    def __init__(self, fields: Sequence[Field]):
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        self._fields = tuple(fields)
        self._index: Dict[str, int] = {
            f.name: i for i, f in enumerate(self._fields)
        }

    @property
    def fields(self) -> Tuple[Field, ...]:
        """The fields in column order."""
        return self._fields

    @property
    def names(self) -> List[str]:
        """Column names in order."""
        return [f.name for f in self._fields]

    def field(self, name: str) -> Field:
        """Field by name."""
        try:
            return self._fields[self._index[name]]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def index_of(self, name: str) -> int:
        """Column position by name."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self):
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.type.value}" for f in self._fields)
        return f"Schema({cols})"

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for the file footer."""
        return {
            "fields": [
                {"name": f.name, "type": f.type.value} for f in self._fields
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schema":
        """Inverse of :meth:`to_dict`."""
        fields = [
            Field(entry["name"], ColumnType(entry["type"]))
            for entry in data["fields"]
        ]
        return cls(fields)


#: The types the C JSON decoder produces, mapped without a subclass test.
_EXACT_TYPES: Dict[type, Optional[ColumnType]] = {
    type(None): None,
    str: ColumnType.STRING,
    int: ColumnType.INT64,
    float: ColumnType.FLOAT64,
    bool: ColumnType.BOOL,
    dict: ColumnType.JSON,
    list: ColumnType.JSON,
}


def _classify_type(kind: type) -> Optional[ColumnType]:
    """Column type of the values of one Python type; None for ``None``.

    ``isinstance`` semantics on the type: a ``bool`` is not an INT64, and a
    subclass of ``int``/``float``/``str`` classifies as its base.
    """
    if kind in _EXACT_TYPES:
        return _EXACT_TYPES[kind]
    if issubclass(kind, bool):
        return ColumnType.BOOL
    if issubclass(kind, int):
        return ColumnType.INT64
    if issubclass(kind, float):
        return ColumnType.FLOAT64
    if issubclass(kind, str):
        return ColumnType.STRING
    return ColumnType.JSON


_PROMOTIONS = {
    frozenset({ColumnType.INT64, ColumnType.FLOAT64}): ColumnType.FLOAT64,
}


def column_values(rows: Sequence[Mapping[str, Any]], name: str) -> List[Any]:
    """Column *name* of *rows*, ``None`` where a row lacks the key."""
    return [row.get(name) for row in rows]


def pull_columns(rows: Sequence[Mapping[str, Any]]) -> Dict[str, List[Any]]:
    """Every column of *rows*, each pulled once (:func:`column_values`),
    keyed in first-appearance order."""
    return {
        name: column_values(rows, name)
        for name in dict.fromkeys(chain.from_iterable(rows))
    }


def infer_schema(records: Iterable[Mapping[str, Any]]) -> Schema:
    """Infer the widest schema covering *records*.

    Column order is first-appearance order, which for generator output is
    the stable writer key order.  See :func:`infer_column_schema`.
    """
    rows = records if isinstance(records, list) else list(records)
    return infer_column_schema(pull_columns(rows))


def infer_column_schema(columns: Mapping[str, List[Any]]) -> Schema:
    """The widest schema covering already pulled *columns* (in order).

    Inference is column-major: each column is classified by its set of
    Python types (``set(map(type, column))``), not value by value.  One
    kind is that kind; INT64 with FLOAT64 promotes to FLOAT64; any other
    mix is JSON — the same widest type a value-by-value fold reaches in
    any order.
    """
    if not columns:
        raise SchemaError("cannot infer a schema from zero records")
    fields = []
    for name, values in columns.items():
        kinds = {_classify_type(kind) for kind in set(map(type, values))}
        kinds.discard(None)
        if not kinds:
            kind = ColumnType.STRING
        elif len(kinds) == 1:
            (kind,) = kinds
        else:
            kind = _PROMOTIONS.get(frozenset(kinds), ColumnType.JSON)
        fields.append(Field(name, kind))
    return Schema(fields)


def schema_covers(current: Schema, needed: Schema) -> bool:
    """Can *current* store every field of *needed* losslessly?

    True when each needed field exists in *current* with the same type, or
    with a wider one (FLOAT64 stores INT64; JSON stores anything).  Used by
    the loader to decide whether an incoming chunk fits the open file or
    the schema must widen (file rotation).
    """
    for field in needed:
        if field.name not in current:
            return False
        have = current.field(field.name).type
        if have == field.type:
            continue
        if have is ColumnType.JSON:
            continue
        if have is ColumnType.FLOAT64 and field.type is ColumnType.INT64:
            continue
        return False
    return True


def merge_schemas(current: Schema, needed: Schema) -> Schema:
    """Widen *current* to additionally cover *needed*.

    Field order: current fields first (stable column ids for existing
    data), then new fields in their needed order.  Conflicting types
    promote INT64/FLOAT64 to FLOAT64 and everything else to JSON.
    """
    fields: List[Field] = []
    for field in current:
        if field.name in needed:
            other = needed.field(field.name).type
            if other == field.type:
                fields.append(field)
            else:
                promoted = _PROMOTIONS.get(
                    frozenset({field.type, other}), ColumnType.JSON
                )
                fields.append(Field(field.name, promoted))
        else:
            fields.append(field)
    for field in needed:
        if field.name not in current:
            fields.append(field)
    return Schema(fields)


def coerce_value(value: Any, column_type: ColumnType) -> Any:
    """Convert *value* to the physical representation of *column_type*.

    Raises :class:`SchemaError` on lossy or impossible conversions — a
    loader bug, not a data property, because the schema was inferred to
    cover the data.
    """
    if value is None:
        return None
    if column_type is ColumnType.JSON:
        return dumps_cell(value)
    if column_type is ColumnType.BOOL:
        if isinstance(value, bool):
            return value
    elif column_type is ColumnType.INT64:
        if isinstance(value, bool):
            raise SchemaError("bool in INT64 column")
        if isinstance(value, int):
            return value
    elif column_type is ColumnType.FLOAT64:
        if isinstance(value, bool):
            raise SchemaError("bool in FLOAT64 column")
        if isinstance(value, (int, float)):
            return float(value)
    elif column_type is ColumnType.STRING:
        if isinstance(value, str):
            return value
    raise SchemaError(
        f"cannot store {type(value).__name__} value in a "
        f"{column_type.value} column"
    )


#: Exact Python types each scalar column stores (or, for FLOAT64, widens).
_PHYSICAL_TYPES = {
    ColumnType.STRING: {str},
    ColumnType.INT64: {int},
    ColumnType.BOOL: {bool},
    ColumnType.FLOAT64: {int, float},
}


def coerce_column(values: List[Any], column_type: ColumnType) -> List[Any]:
    """:func:`coerce_value` over a whole column, one bulk step per type set.

    The column's exact type set decides: STRING/INT64/BOOL values of
    exactly ``str``/``int``/``bool`` are already physical, FLOAT64 and JSON
    take one comprehension, and any other type set (subclasses, a value
    that does not fit) falls back to :func:`coerce_value` per value — so
    every :class:`SchemaError` is the one the per-value path raises.
    """
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if not kinds:
        return values
    if column_type is ColumnType.JSON:
        return [None if value is None else dumps_cell(value)
                for value in values]
    if kinds <= _PHYSICAL_TYPES[column_type]:
        if int in kinds and column_type is ColumnType.FLOAT64:
            return [None if value is None else float(value)
                    for value in values]
        return values
    return [coerce_value(value, column_type) for value in values]

