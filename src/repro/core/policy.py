"""Contracts and permission intersection (§5 "Use of OS Interfaces", §11).

The paper's permission system is deliberately simple: *"the OS restricts
the set of privileges that can be granted, the container specifies the set
of privileges it requires, and the hosting engine grants the intersection
of these sets."*  A :class:`HookPolicy` is the OS side (fixed per hook —
the paper notes one privilege set per hook as a limitation), a
:class:`ContainerContract` is what the container requests, and
:func:`grant` computes the intersection the VM is instantiated with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memo import seal_hash
from repro.vm.memory import Permission


class PolicyError(Exception):
    """The contract requests something the hook can never grant."""


@dataclass(frozen=True)
class MemoryGrant:
    """A named region the OS may expose to containers on a hook."""

    name: str
    start: int
    size: int
    perms: Permission


#: The eBPF-mandated default stack; contracts may negotiate more (§10.2:
#: "An enhanced implementation could however allow the application to
#: request more stack from the RTOS, for example via the contracts").
DEFAULT_STACK_SIZE = 512


@dataclass(frozen=True)
class HookPolicy:
    """OS-side privilege ceiling for one hook (one fixed set per hook)."""

    #: Helper ids callable from this hook; None means all registered.
    allowed_helpers: frozenset[int] | None = None
    #: N_i ceiling for applications attached here.
    max_instructions: int = 4096
    #: N_b ceiling.
    branch_limit: int = 10_000
    #: Whether containers may mutate the hook context struct.
    context_writable: bool = True
    #: Extra memory regions this hook can expose (e.g. a packet buffer).
    memory_grants: tuple[MemoryGrant, ...] = ()
    #: Largest stack the RTOS will hand out on this hook (§10.2 extension).
    max_stack_size: int = 2048

    def __post_init__(self) -> None:  # hashable however built: a memo key
        if self.allowed_helpers is not None:
            object.__setattr__(self, "allowed_helpers",
                               frozenset(self.allowed_helpers))
        object.__setattr__(self, "memory_grants", tuple(self.memory_grants))
        seal_hash(self)

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class ContainerContract:
    """Container-side privilege request."""

    #: Helper ids the application wants; None means "whatever is allowed".
    helpers: frozenset[int] | None = None
    max_instructions: int = 4096
    branch_limit: int = 10_000
    #: Names of hook memory grants the container wants mapped.
    memory_regions: tuple[str, ...] = ()
    #: Stack bytes the application asks the RTOS for (§10.2 extension).
    stack_size: int = DEFAULT_STACK_SIZE

    def __post_init__(self) -> None:  # hashable however built: a memo key
        if self.helpers is not None:
            object.__setattr__(self, "helpers", frozenset(self.helpers))
        object.__setattr__(self, "memory_regions", tuple(self.memory_regions))
        seal_hash(self)

    def __hash__(self) -> int:
        return self._hash


#: The contract of a container that asks for nothing beyond the defaults:
#: one frozen value shared by every such container and attachment, so the
#: engine's grant memo finds it by identity.
DEFAULT_CONTRACT = ContainerContract()


@dataclass(frozen=True)
class GrantedPolicy:
    """The intersection actually enforced on the VM."""

    allowed_helpers: frozenset[int] | None
    max_instructions: int
    branch_limit: int
    context_writable: bool
    memory_grants: tuple[MemoryGrant, ...]
    stack_size: int = DEFAULT_STACK_SIZE


def grant(hook_policy: HookPolicy,
          contract: ContainerContract | None = None) -> GrantedPolicy:
    """Intersect OS ceiling and container request (§11's rule)."""
    contract = contract or DEFAULT_CONTRACT

    if hook_policy.allowed_helpers is None:
        helpers = contract.helpers
    elif contract.helpers is None:
        helpers = hook_policy.allowed_helpers
    else:
        helpers = hook_policy.allowed_helpers & contract.helpers
        missing = contract.helpers - hook_policy.allowed_helpers
        if missing:
            raise PolicyError(
                "contract requests helpers the hook forbids: "
                + ", ".join(f"0x{h:02x}" for h in sorted(missing))
            )

    wanted = set(contract.memory_regions)
    grants = tuple(
        g for g in hook_policy.memory_grants
        if not wanted or g.name in wanted
    )
    unknown = wanted - {g.name for g in hook_policy.memory_grants}
    if unknown:
        raise PolicyError(
            f"contract requests unknown memory regions: {sorted(unknown)}"
        )

    if contract.stack_size < DEFAULT_STACK_SIZE:
        raise PolicyError(
            f"contract stack request {contract.stack_size} below the "
            f"{DEFAULT_STACK_SIZE} B architectural minimum"
        )
    if contract.stack_size > hook_policy.max_stack_size:
        raise PolicyError(
            f"contract requests {contract.stack_size} B of stack but the "
            f"hook grants at most {hook_policy.max_stack_size} B"
        )

    return GrantedPolicy(
        allowed_helpers=helpers,
        max_instructions=min(hook_policy.max_instructions,
                             contract.max_instructions),
        branch_limit=min(hook_policy.branch_limit, contract.branch_limit),
        context_writable=hook_policy.context_writable,
        memory_grants=grants,
        stack_size=contract.stack_size,
    )
