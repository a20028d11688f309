"""The suite-target catalog: how every suite target is named, listed
and launched.

Four tools judge the ScoR suite — scolint (``lint``), the model checker
(``mc``), forensics (``explain``) and the static/dynamic
cross-validation — and all of them resolve targets here.

Grammar (one target per string)::

    micro:<name>            a Table I microbenchmark (32)
    app:<NAME>[+flag...]    a ScoR application (7), with zero or more of
                            its race flags (26 in all)
    litmus:<name>           a scoped litmus test (12)

Application names are case-insensitive.  Race flags are validated
against the application's ``RACE_FLAGS``, deduplicated and sorted into
the label, so ``app:red+block_fence+block_count`` and
``app:RED+block_count+block_fence`` are one target.  An unknown kind,
name or flag raises :class:`~repro.common.errors.ConfigError` naming
the grammar.

Groups::

    micros   the 32 microbenchmarks
    apps     every application once flagless, then once per race flag (33)
    litmus   the 12 litmus tests
    suite    micros + apps: the 65 configurations of Tables I and VI
    all      suite + litmus (77)

:meth:`Target.launch` sets a target up on a host and launches it.  The
host is either a simulating :class:`~repro.engine.gpu.GPU` or scolint's
:class:`~repro.scolint.driver.LintGPU`: both expose the same host API,
so one launcher per kind (``launch_micro``, ``ScorApp.run``,
``launch_litmus``) serves every tool.

Registries are imported on first use, so importing this module is
cheap.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError

GRAMMAR = (
    "micro:<name>, app:<NAME>[+flag...], litmus:<name>, or a group "
    "(micros, apps, litmus, suite, all)"
)

#: composite groups, in expansion order
_COMPOSITE = {
    "suite": ("micros", "apps"),
    "all": ("micros", "apps", "litmus"),
}
GROUPS = ("micros", "apps", "litmus", "suite", "all")


@dataclasses.dataclass(frozen=True)
class Target:
    """One suite configuration: a micro, an app with flags, or a litmus
    test."""

    kind: str                     #: "micro" | "app" | "litmus"
    name: str                     #: registry name (apps upper-case)
    flags: Tuple[str, ...] = ()   #: sorted race flags (apps only)
    #: the registered Micro, ScorApp subclass, or LitmusTest
    subject: object = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}" + "".join(
            f"+{flag}" for flag in self.flags
        )

    @property
    def racy(self) -> Optional[bool]:
        """Ground truth; None for litmus tests, which have none."""
        if self.kind == "micro":
            return self.subject.racey
        if self.kind == "app":
            return bool(self.flags)
        return None

    @property
    def expected_types(self) -> FrozenSet:
        """Race types the injected bugs must surface (Table VI)."""
        if self.kind == "micro":
            return self.subject.expected_types
        if self.kind == "app":
            return frozenset(
                race_type
                for flag in self.subject.RACE_FLAGS
                if flag.name in self.flags
                for race_type in flag.expected_types
            )
        return frozenset()

    def grid(self, warp_size: int) -> int:
        """Blocks in the target's (first) launch."""
        if self.kind == "micro":
            from repro.scor.micro.base import launch_shape

            return launch_shape(self.subject.placement, warp_size)[0]
        if self.kind == "app":
            return self.subject(races=self.flags).grid
        from repro.litmus.framework import litmus_shape

        return litmus_shape(self.subject, warp_size)[0]

    def launch(self, host):
        """Set the target up on *host* (a GPU or a LintGPU) and run it.

        Returns the litmus observation array, or None for micros and
        apps.
        """
        if self.kind == "micro":
            from repro.scor.micro.base import launch_micro

            launch_micro(host, self.subject)
            return None
        if self.kind == "app":
            self.subject(races=self.flags).run(host)
            return None
        from repro.litmus.framework import launch_litmus

        return launch_litmus(host, self.subject)


def parse_target(spec: str) -> Target:
    """The :class:`Target` a ``kind:name[+flag...]`` string names."""
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in ("micro", "app", "litmus"):
        raise ConfigError(f"unknown target {spec!r}: expected {GRAMMAR}")
    try:
        if kind == "micro":
            from repro.scor.micro.registry import micro_by_name

            return _micro(micro_by_name(rest))
        if kind == "litmus":
            from repro.litmus.catalog import litmus_by_name

            return _litmus(litmus_by_name(rest))
        from repro.scor.apps.registry import app_by_name

        name, *flags = rest.split("+")
        return _app(app_by_name(name), [flag for flag in flags if flag])
    except KeyError as err:
        # The registries (and _app) name the unknown name or flag.
        raise ConfigError(
            f"bad target {spec!r}: {err.args[0]}; expected {GRAMMAR}"
        ) from None


def expand_targets(specs: Iterable[str]) -> List[Target]:
    """Targets for a list of target strings and group names, in order."""
    out: List[Target] = []
    for spec in specs:
        if spec in GROUPS:
            for group in _COMPOSITE.get(spec, (spec,)):
                out.extend(_group(group))
        else:
            out.append(parse_target(spec))
    return out


def _group(name: str) -> List[Target]:
    if name == "micros":
        from repro.scor.micro.registry import ALL_MICROS

        return [_micro(micro) for micro in ALL_MICROS]
    if name == "apps":
        from repro.scor.apps.registry import ALL_APPS

        return [
            _app(app_cls, flags)
            for app_cls in ALL_APPS
            for flags in [()] + [(f.name,) for f in app_cls.RACE_FLAGS]
        ]
    from repro.litmus.catalog import ALL_LITMUS_TESTS

    return [_litmus(test) for test in ALL_LITMUS_TESTS]


def _micro(micro) -> Target:
    return Target("micro", micro.name, subject=micro)


def _litmus(test) -> Target:
    return Target("litmus", test.name, subject=test)


def _app(app_cls, flags) -> Target:
    known = {flag.name for flag in app_cls.RACE_FLAGS}
    unknown = sorted(set(flags) - known)
    if unknown:
        raise KeyError(
            f"{app_cls.name} has no race flag(s) {unknown}; "
            f"known: {sorted(known)}"
        )
    return Target(
        "app", app_cls.name, tuple(sorted(set(flags))), subject=app_cls
    )
