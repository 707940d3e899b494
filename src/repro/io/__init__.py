"""Result and protocol persistence."""

from .columnar import (
    ColumnStore,
    ShardWriter,
    group_reduce,
    group_reduce_rows,
    is_column_store,
)
from .protocols import (
    load_protocol,
    protocol_from_dict,
    protocol_to_dict,
    save_protocol,
)
from .results import ResultTable, load_table

__all__ = [
    "ResultTable",
    "ColumnStore",
    "ShardWriter",
    "group_reduce",
    "group_reduce_rows",
    "is_column_store",
    "protocol_to_dict",
    "protocol_from_dict",
    "save_protocol",
    "load_protocol",
    "load_table",
]
