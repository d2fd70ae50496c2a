"""Symbol tables for the IR: scalar vs array, element type, dimensions."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Iterator


class ElemType(Enum):
    INT = "int"
    FLOAT = "float"

    @staticmethod
    def of_c_type(type_name: str) -> "ElemType":
        floaty = {"float", "double"}
        words = set(type_name.split())
        return ElemType.FLOAT if words & floaty else ElemType.INT


@dataclass(frozen=True, slots=True)
class VarInfo:
    name: str
    elem_type: ElemType
    dims: tuple[object, ...] = ()  # IExpr | None per dimension; () = scalar
    is_param: bool = False
    is_global: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass(slots=True)
class SymbolTable:
    """Flat per-function (or global) table.  The mini-C subset has no
    shadowing inside a function body (block-scoped decls are hoisted).

    The builder freezes every table it returns (:meth:`freeze`): the
    function fingerprint hashes the table, so a later declaration would
    leave a cached fingerprint stale."""

    vars: dict[str, VarInfo] = field(default_factory=dict)
    parent: "SymbolTable | None" = None
    frozen: bool = field(default=False, init=False, repr=False, compare=False)

    def declare(self, info: VarInfo) -> None:
        if self.frozen:
            raise FrozenInstanceError(
                f"symbol table is frozen; cannot declare {info.name!r} after the build"
            )
        self.vars[info.name] = info

    def freeze(self) -> None:
        """Refuse every later :meth:`declare`."""
        self.frozen = True

    def fingerprint(self) -> str:
        """Every visible declaration (innermost wins), in name order."""
        infos: dict[str, str] = {}
        tab: SymbolTable | None = self
        while tab is not None:
            for name, info in tab.vars.items():
                infos.setdefault(name, repr(info))
            tab = tab.parent
        return ";".join(f"{n}={infos[n]}" for n in sorted(infos))

    def lookup(self, name: str) -> VarInfo | None:
        if name in self.vars:
            return self.vars[name]
        if self.parent is not None:
            return self.parent.lookup(name)
        return None

    def is_array(self, name: str) -> bool:
        info = self.lookup(name)
        return info is not None and info.is_array

    def is_int_scalar(self, name: str) -> bool:
        info = self.lookup(name)
        return info is not None and not info.is_array and info.elem_type is ElemType.INT

    def arrays(self) -> Iterator[VarInfo]:
        seen: set[str] = set()
        tab: SymbolTable | None = self
        while tab is not None:
            for info in tab.vars.values():
                if info.is_array and info.name not in seen:
                    seen.add(info.name)
                    yield info
            tab = tab.parent

    def scalars(self) -> Iterator[VarInfo]:
        seen: set[str] = set()
        tab: SymbolTable | None = self
        while tab is not None:
            for info in tab.vars.values():
                if not info.is_array and info.name not in seen:
                    seen.add(info.name)
                    yield info
            tab = tab.parent
