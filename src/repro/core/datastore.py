"""Per-peer (key, value) database.

Section 3.1: "A data item is represented by a (key, value) pair ...
Each peer receiving the flooding packets or random walk packets checks
its own database for the data item queried."

The store also implements Table 1's ``loadtransfer`` (items in a
segment move to a newly joined t-peer); ``loaddump`` (a leaving peer
hands everything to its successor) is the t-network's departure path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..overlay.idspace import IdSpace

__all__ = ["DataItem", "DataStore"]


@dataclass(frozen=True)
class DataItem:
    """One stored (key, value) pair plus its hashed id."""

    key: str
    value: Any
    d_id: int


class DataStore:
    """Dictionary-backed item database keyed by the data key.

    Re-inserting an existing key overwrites its value (standard DHT
    ``store`` semantics).
    """

    __slots__ = ("_idspace", "_items")

    def __init__(self, idspace: IdSpace) -> None:
        self._idspace = idspace
        self._items: Dict[str, DataItem] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self._items.values())

    # ------------------------------------------------------------------
    def insert(self, key: str, value: Any, d_id: Optional[int] = None) -> DataItem:
        """Insert/overwrite an item; computes ``d_id`` if not given."""
        if d_id is None:
            d_id = self._idspace.hash_key(key)
        item = DataItem(key, value, d_id)
        self._items[key] = item
        return item

    def insert_item(self, item: DataItem) -> None:
        """Insert an already-materialised item (bulk transfers)."""
        self._items[item.key] = item

    def get(self, key: str) -> Optional[DataItem]:
        """Look the key up locally; None if absent."""
        return self._items.get(key)

    def delete(self, key: str) -> bool:
        """Remove an item; returns whether it was present."""
        return self._items.pop(key, None) is not None

    def keys(self) -> List[str]:
        return list(self._items)

    # ------------------------------------------------------------------
    # Bulk moves from Table 1
    # ------------------------------------------------------------------
    def extract_segment(self, pred_pid: int, new_pid: int) -> List[DataItem]:
        """Remove and return items whose ``d_id`` is in ``(pred, new]``.

        Implements ``loadtransfer``: when a new t-peer with id ``new_pid``
        is inserted after the segment boundary ``pred_pid``, all items it
        is now responsible for move to it.
        """
        moved = [
            item
            for item in self._items.values()
            if self._idspace.owner_segment_contains(item.d_id, pred_pid, new_pid)
        ]
        for item in moved:
            del self._items[item.key]
        return moved
