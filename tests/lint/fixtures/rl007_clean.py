"""RL007 clean fixture: reads and public mutators only."""


def retired(mkb) -> int:
    # Clean: reading the lists and the index is allowed.
    return len(mkb._historical_pc) + len(mkb._index)


def retire(mkb, pc) -> None:
    # Clean: the MKB's own methods keep the index current.
    mkb.retract_pc_constraint(pc)
    mkb.on_relation_deleted(pc.left.relation)


class Schema:
    def __init__(self) -> None:
        # Clean: other attribute names are not reserved.
        self._positions = {}
        self._positions["A"] = 0
