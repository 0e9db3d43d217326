"""Determinism rules.

The paper's figures are reproduced from seeded runs, so every simulation
must be bit-for-bit deterministic under its seed (DESIGN.md; see also
:func:`repro.crypto.prng.derive_seed`).  These rules catch the classic ways
Python code silently breaks that property: the process-global ``random``
module, wall-clock reads, OS entropy, and iteration over unordered sets.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.core import Finding, ModuleInfo, Rule, Severity, register_rule

__all__ = [
    "GlobalRandomRule",
    "WallClockRule",
    "OsEntropyRule",
    "SetIterationRule",
]

#: Protocol packages whose behaviour feeds the paper's metrics.
PROTOCOL_SCOPE: Tuple[str, ...] = (
    "repro/sim",
    "repro/brahms",
    "repro/core",
    "repro/adversary",
)

#: Functions on the ``random`` module that consume the *global* hidden state.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "betavariate", "gammavariate", "paretovariate",
        "weibullvariate", "vonmisesvariate", "triangular", "getrandbits",
        "randbytes", "seed", "setstate", "getstate", "binomialvariate",
    }
)


#: Seedable generators: constructed with no seed (or ``None``) they seed
#: themselves from the OS.
_SEEDABLE_RNGS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)


def _called_func(node: ast.AST):
    return node.func if isinstance(node, ast.Call) else None


def _import_bindings(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted path an absolute import binds it to."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                bindings[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _qualified_name(func: ast.AST, bindings: Dict[str, str]) -> Optional[str]:
    """``np.random.default_rng`` -> ``numpy.random.default_rng``."""
    attrs = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in bindings:
        return None
    return ".".join([bindings[func.id], *reversed(attrs)])


@register_rule
class GlobalRandomRule(Rule):
    """Ban the process-global ``random`` state in reproduction code."""

    rule_id = "det-global-random"
    description = "call to the global random module's hidden-state functions"
    rationale = (
        "The global random.* state is shared process-wide: any library call "
        "or test ordering change perturbs every stream after it.  Randomness "
        "must flow through an injected random.Random / Sha256Prng."
    )
    severity = Severity.ERROR
    scope = ("repro",)

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = module.import_aliases("random")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name not in ("Random",)]
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"from random import {', '.join(bad)} binds global-state "
                        f"helpers; inject a random.Random/Sha256Prng instead",
                    )
            func = _called_func(node)
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
                and func.attr in _GLOBAL_RANDOM_FUNCS
            ):
                yield self.finding(
                    module,
                    node,
                    f"random.{func.attr}() uses the process-global PRNG; "
                    f"draw from an injected random.Random/Sha256Prng",
                )


@register_rule
class WallClockRule(Rule):
    """Ban wall-clock reads; simulated time comes from the engine."""

    rule_id = "det-wall-clock"
    description = "wall-clock read (time.time, datetime.now, ...)"
    rationale = (
        "Simulated rounds are the only clock the protocol may observe; a "
        "wall-clock read makes runs differ between machines and executions."
    )
    severity = Severity.ERROR
    scope = ("repro",)

    _TIME_FUNCS = frozenset(
        {
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns", "process_time",
            "process_time_ns", "clock_gettime",
        }
    )
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        time_aliases = module.import_aliases("time")
        datetime_aliases = module.import_aliases("datetime")
        # `from datetime import datetime, date` binds class names locally.
        datetime_classes: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_classes.add(alias.asname or alias.name)
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in self._TIME_FUNCS]
                if bad:
                    yield self.finding(
                        module, node,
                        f"from time import {', '.join(bad)} reads the wall "
                        f"clock; use the simulation round counter",
                    )
        for node in ast.walk(module.tree):
            func = _called_func(node)
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if isinstance(base, ast.Name) and base.id in time_aliases and func.attr in self._TIME_FUNCS:
                yield self.finding(
                    module, node,
                    f"time.{func.attr}() is nondeterministic; use the "
                    f"simulation round counter / cycle accountant",
                )
            if func.attr in self._DATETIME_FUNCS:
                if isinstance(base, ast.Name) and base.id in datetime_classes:
                    yield self.finding(
                        module, node,
                        f"{base.id}.{func.attr}() reads the wall clock; "
                        f"derive timestamps from the simulation state",
                    )
                elif (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in datetime_aliases
                ):
                    yield self.finding(
                        module, node,
                        f"datetime.{base.attr}.{func.attr}() reads the wall "
                        f"clock; derive timestamps from the simulation state",
                    )


@register_rule
class OsEntropyRule(Rule):
    """Ban OS entropy sources that cannot be seeded."""

    rule_id = "det-os-entropy"
    description = (
        "unseedable OS entropy (os.urandom, secrets, uuid4, SystemRandom) "
        "or a seedable RNG constructed without a seed"
    )
    rationale = (
        "os.urandom / secrets / SystemRandom / uuid4 pull from the kernel "
        "CSPRNG and can never reproduce a run, and random.Random() / "
        "numpy.random.default_rng() / RandomState() with no seed do the "
        "same once, at construction.  Protocol randomness comes from "
        "Sha256Prng or a generator seeded from the experiment seed."
    )
    severity = Severity.ERROR
    scope = ()  # everywhere, including tests

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        os_aliases = module.import_aliases("os")
        random_aliases = module.import_aliases("random")
        uuid_aliases = module.import_aliases("uuid")
        secrets_aliases = module.import_aliases("secrets")
        bindings = _import_bindings(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                constructor = _qualified_name(node.func, bindings)
                seeds = node.args + [keyword.value for keyword in node.keywords]
                if constructor in _SEEDABLE_RNGS and all(
                    isinstance(seed, ast.Constant) and seed.value is None
                    for seed in seeds
                ):
                    yield self.finding(
                        module, node,
                        f"{constructor}() without a seed draws one from the "
                        f"OS; pass a seed derived from the experiment seed",
                    )
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "secrets":
                        yield self.finding(
                            module, node,
                            "import secrets pulls kernel entropy; use the "
                            "injected Sha256Prng",
                        )
            if isinstance(node, ast.ImportFrom):
                if node.module == "os" and any(a.name == "urandom" for a in node.names):
                    yield self.finding(
                        module, node,
                        "from os import urandom is unseedable; use Sha256Prng.bytes()",
                    )
                if node.module == "secrets":
                    yield self.finding(
                        module, node,
                        "the secrets module pulls kernel entropy; use Sha256Prng",
                    )
                if node.module == "random" and any(
                    a.name == "SystemRandom" for a in node.names
                ):
                    yield self.finding(
                        module, node,
                        "SystemRandom is unseedable; use Sha256Prng",
                    )
            func = _called_func(node)
            if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
                continue
            base, attr = func.value.id, func.attr
            if base in os_aliases and attr == "urandom":
                yield self.finding(
                    module, node,
                    "os.urandom() is unseedable; use Sha256Prng.bytes()",
                )
            elif base in random_aliases and attr == "SystemRandom":
                yield self.finding(
                    module, node,
                    "random.SystemRandom is unseedable; use Sha256Prng",
                )
            elif base in uuid_aliases and attr in ("uuid1", "uuid4"):
                yield self.finding(
                    module, node,
                    f"uuid.{attr}() is nondeterministic; derive IDs from "
                    f"repro.crypto.hashing.int_digest",
                )
            elif base in secrets_aliases:
                yield self.finding(
                    module, node,
                    f"secrets.{attr}() pulls kernel entropy; use Sha256Prng",
                )


@register_rule
class SetIterationRule(Rule):
    """Flag iteration over freshly-built unordered sets in protocol code."""

    rule_id = "det-set-iteration"
    description = "iteration over an unordered set expression"
    rationale = (
        "Set iteration order depends on insertion history and, for str "
        "keys, on the per-process hash seed — identical runs can visit "
        "peers in different orders.  Wrap the set in sorted(...)."
    )
    severity = Severity.WARNING
    scope = PROTOCOL_SCOPE

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            targets = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                targets.extend(generator.iter for generator in node.generators)
            for target in targets:
                if self._is_set_expression(target):
                    yield self.finding(
                        module,
                        target,
                        "iterating an unordered set; wrap it in sorted(...) "
                        "so traversal order is deterministic",
                    )
