"""The conventions RAPTEE's results rest on, checked on the AST of every file under ``src/``
and ``tests/``: a seeded run replays bit for bit (``det-*``), untrusted code reaches enclave
state only through ECALLs (§IV, ``enclave-*``), key material stays clear of stdlib ``random``,
weak hashes and ``==`` on digests (``crypto-*``), and simulation code does no print or I/O
(``purity-*``). One generator per rule takes a file's ``ast.walk`` node list (module first)
and yields ``(node, message)``; ``SCOPES`` maps each rule to path prefixes (``repro/...`` as
under ``src/``, or ``tests/...``), and ``ALLOWED`` lists the (file, rule) pairs broken on
purpose, each with its reason.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_GLOBAL_RANDOM = frozenset("""random randint randrange choice choices shuffle sample uniform
    gauss normalvariate lognormvariate expovariate betavariate gammavariate paretovariate
    weibullvariate vonmisesvariate triangular getrandbits randbytes seed setstate getstate
    binomialvariate""".split())
_SEEDABLE_RNGS = {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
_TIME_FUNCS = frozenset("""time time_ns monotonic monotonic_ns perf_counter perf_counter_ns
    process_time process_time_ns clock_gettime""".split())
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_DIGEST_FUNCS = frozenset({"sha256", "hmac_sha256", "concat_hash", "hkdf"})
_DIGEST_METHODS = frozenset({"digest", "hexdigest", "sign"})
_SECRET_SEGMENTS = frozenset({"digest", "digests", "mac", "hmac", "tag", "signature", "sig"})
_WEAK_HASHES = frozenset({"md5", "sha1"})
_ENTROPY_CALLS = {"os": ("urandom",), "random": ("SystemRandom",), "uuid": ("uuid1", "uuid4")}
_BANNED_MODULES = {"socket": "network I/O", "urllib": "network I/O", "http": "network I/O",
                   "requests": "network I/O", "subprocess": "process spawning",
                   "asyncio": "event-loop scheduling"}


def _aliases(nodes, module):
    """Local names the ``import module[.sub] [as name]`` statements in ``nodes`` bind."""
    return {
        alias.asname or module for node in nodes if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[0] == module
    }


def _from_imports(nodes, module):
    return (n for n in nodes if isinstance(n, ast.ImportFrom) and n.module == module)


def _attr_call(node):
    """``(base, attr)`` for a call ``base.attr(...)`` on a plain name."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)):
        return node.func.value.id, node.func.attr
    return None, None


def _name_call(node, names):
    """The called name if ``node`` calls one of ``names`` directly."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
        return node.func.id
    return None


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _qualified_name(func, bindings):
    """``np.random.default_rng`` -> ``numpy.random.default_rng``."""
    attrs = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name) and func.id in bindings:
        return ".".join([bindings[func.id], *reversed(attrs)])
    return None


def det_global_random(nodes):
    aliases = _aliases(nodes, "random")
    for node in _from_imports(nodes, "random"):
        bad = [alias.name for alias in node.names if alias.name != "Random"]
        if bad:
            yield node, f"from random import {', '.join(bad)} binds global-state helpers"
    for node in nodes:
        base, attr = _attr_call(node)
        if base in aliases and attr in _GLOBAL_RANDOM:
            yield node, f"random.{attr}() draws from the process-global PRNG"


def det_wall_clock(nodes):
    time_aliases, datetime_aliases = _aliases(nodes, "time"), _aliases(nodes, "datetime")
    classes = {a.asname or a.name for node in _from_imports(nodes, "datetime")
               for a in node.names if a.name in ("datetime", "date")}
    for node in _from_imports(nodes, "time"):
        bad = [alias.name for alias in node.names if alias.name in _TIME_FUNCS]
        if bad:
            yield node, f"from time import {', '.join(bad)} reads the wall clock"
    for node in nodes:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        base, attr = node.func.value, node.func.attr
        if isinstance(base, ast.Name) and base.id in time_aliases and attr in _TIME_FUNCS:
            yield node, f"time.{attr}() reads the wall clock; use the round counter"
        elif attr in _DATETIME_FUNCS and (
            isinstance(base, ast.Name) and base.id in classes
            or isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
            and base.value.id in datetime_aliases
        ):
            yield node, f"{attr}() reads the wall clock; derive time from the simulation"


def det_os_entropy(nodes):
    aliases = {module: _aliases(nodes, module) for module in (*_ENTROPY_CALLS, "secrets")}
    bindings = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                bindings[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in nodes:
        if isinstance(node, ast.Call):
            constructor = _qualified_name(node.func, bindings)
            seeds = node.args + [keyword.value for keyword in node.keywords]
            if constructor in _SEEDABLE_RNGS and all(_is_none(seed) for seed in seeds):
                yield node, f"{constructor}() without a seed draws one from the OS"
        if _aliases([node], "secrets") or isinstance(node, ast.ImportFrom) and (
            node.module == "secrets"
            or any(alias.name in _ENTROPY_CALLS.get(node.module, ()) for alias in node.names)
        ):
            yield node, "imports an unseedable OS entropy source; use Sha256Prng"
        base, attr = _attr_call(node)
        for module in (*_ENTROPY_CALLS, "secrets"):
            if base in aliases[module] and attr in _ENTROPY_CALLS.get(module, (attr,)):
                yield node, f"{module}.{attr}() draws unseedable OS entropy; use Sha256Prng"
                break


def det_set_iteration(nodes):
    for node in nodes:
        loops = [node] if isinstance(node, (ast.For, ast.AsyncFor)) else (
            getattr(node, "generators", ()))  # the comprehensions
        for it in (loop.iter for loop in loops):
            if isinstance(it, (ast.Set, ast.SetComp)) or _name_call(it, ("set", "frozenset")):
                yield it, "iterating an unordered set; wrap it in sorted(...)"


def enclave_private_access(nodes):
    for node in nodes:
        if not isinstance(node, ast.Attribute) or node.attr[:1] != "_" or node.attr[:2] == "__":
            continue
        if node.attr == "_enclave":
            yield node, "._enclave reaches the raw enclave behind its host; call an @ecall"
        elif isinstance(node.value, ast.Name) and "enclave" in node.value.id.lower():
            yield node, f"{node.value.id}.{node.attr} reads enclave-private state"


def enclave_internal_import(nodes):
    for module in ("repro.sgx.enclave", "repro.core.enclave"):
        for node in _from_imports(nodes, module):
            for alias in node.names:
                if alias.name in ("*", "sealing_key_for") or alias.name.startswith("_"):
                    yield node, f"{module}.{alias.name} is TCB-internal"


def enclave_boundary_bypass(nodes):
    for node in nodes:
        base, attr = _attr_call(node)
        func = _name_call(node, ("getattr", "setattr"))
        target, name = (node.args + [None, None])[:2] if func else (None, None)
        if base == "object" and attr in ("__getattribute__", "__setattr__"):
            yield node, f"object.{attr}() bypasses the EnclaveHost attribute guard"
        elif isinstance(target, ast.Name) and isinstance(name, ast.Constant) and (
            "enclave" in target.id.lower() or "host" in target.id.lower()
        ) and isinstance(name.value, str) and name.value.startswith("_"):
            yield node, f"{func}({target.id}, {name.value!r}) reaches enclave state"


def crypto_stdlib_random(nodes):
    for node in nodes[0].body:
        if _aliases([node], "random") or next(_from_imports([node], "random"), None):
            yield node, "stdlib random at module scope in trusted/crypto code; use Sha256Prng"


def _looks_like_digest(node):
    if isinstance(node, ast.Call):
        return bool(_name_call(node, _DIGEST_FUNCS)) or (
            isinstance(node.func, ast.Attribute) and node.func.attr in _DIGEST_METHODS
        )
    if not isinstance(node, (ast.Name, ast.Attribute)):
        return False
    name = (node.id if isinstance(node, ast.Name) else node.attr).lower()
    return name.split("_")[-1] in _SECRET_SEGMENTS or name.endswith("digest")


def crypto_digest_compare(nodes):
    for node in nodes:
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and (
            not any(map(_is_none, operands)) and any(map(_looks_like_digest, operands))
        ):
            yield node, "digest/MAC compared with ==; use constant_time_equal"


def crypto_weak_hash(nodes):
    hashlib_aliases = _aliases(nodes, "hashlib")
    for node in _from_imports(nodes, "hashlib"):
        weak = [alias.name for alias in node.names if alias.name in _WEAK_HASHES]
        if weak:
            yield node, f"from hashlib import {', '.join(weak)}: broken hash; use sha256"
    for node in nodes:
        base, attr = _attr_call(node)
        name = node.args[0] if base in hashlib_aliases and attr == "new" and node.args else None
        if base in hashlib_aliases and attr in _WEAK_HASHES:
            yield node, f"hashlib.{attr}() is collision-broken; use sha256"
        elif isinstance(name, ast.Constant) and str(name.value).lower() in _WEAK_HASHES:
            yield node, f"hashlib.new({name.value!r}) selects a broken hash"


def purity_print(nodes):
    for node in nodes:
        if _name_call(node, ("print",)):
            yield node, "print() in simulation code; return data and let a CLI report it"


def purity_io(nodes):
    for node in nodes:
        if _name_call(node, ("open",)):
            yield node, "open() in simulation code"
        modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [
            node.module] if isinstance(node, ast.ImportFrom) and node.module else []
        for module in modules:
            why = _BANNED_MODULES.get(module.split(".")[0])
            if why:
                yield node, f"{module}: {why} in simulation code"


RULES = {check.__name__.replace("_", "-"): check for check in (
    det_global_random, det_wall_clock, det_os_entropy, det_set_iteration, enclave_private_access,
    enclave_internal_import, enclave_boundary_bypass, crypto_stdlib_random, crypto_digest_compare,
    crypto_weak_hash, purity_print, purity_io,
)}

_TCB = ("repro/sgx", "repro/core/enclave.py")
#: rule -> (covered prefixes, exempt prefixes).
SCOPES = {
    **dict.fromkeys(("det-global-random", "det-wall-clock", "det-set-iteration",
                     "crypto-digest-compare", "purity-print", "purity-io"), (("repro",), ())),
    **dict.fromkeys(("det-os-entropy", "crypto-weak-hash"), (("repro", "tests"), ())),
    **dict.fromkeys(("enclave-private-access", "enclave-internal-import",
                     "enclave-boundary-bypass"), (("repro",), _TCB)),
    "crypto-stdlib-random": (("repro/sgx", "repro/crypto"), ()),
}

_CLI = "it is a command line: reporting to stdout is its job"
_OUT = "it writes the files its flags name"
_CLIS = ("repro/cli.py",)
#: (path, rule) -> why this file breaks the rule on purpose.
ALLOWED = {
    **{(path, "purity-print"): _CLI for path in _CLIS},
    **{(path, "purity-io"): _OUT for path in _CLIS},
    ("repro/snapshot/format.py", "purity-io"): "reading and writing checkpoint files is its job",
    ("repro/snapshot/seedstore.py", "purity-io"): "reading and writing the seed store is its job",
    ("repro/crypto/prng.py", "crypto-stdlib-random"): "Sha256Prng subclasses random.Random",
    ("repro/crypto/numbers.py", "crypto-stdlib-random"):
        "the Miller-Rabin witness fallback is a random.Random seeded from n, never global state",
    ("repro/telemetry/profiling.py", "det-wall-clock"):
        "the opt-in profiler is the one wall-clock reader; its timings feed nothing back "
        "and stay out of traces and metrics",
}


def _covers(prefixes, path):
    return any(path == prefix or path.startswith(prefix + "/") for prefix in prefixes)


def findings(source, path):
    """Sorted ``(line, col, rule, message)`` of every rule whose scope covers ``path``."""
    nodes = list(ast.walk(ast.parse(source, path)))
    return sorted(
        (node.lineno, node.col_offset + 1, rule, message)
        for rule, check in RULES.items()
        if _covers(SCOPES[rule][0], path) and not _covers(SCOPES[rule][1], path)
        for node, message in check(nodes)
    )


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_tree_is_clean(tree):
    base, found = ROOT / ("src" if tree == "src" else ""), {}
    for file in sorted((ROOT / tree).rglob("*.py")):
        path = file.relative_to(base).as_posix()
        for line, col, rule, message in findings(file.read_text(encoding="utf-8"), path):
            found.setdefault((path, rule), []).append(f"{path}:{line}:{col}: {rule}: {message}")
    unlisted = [text for key in sorted(found) if key not in ALLOWED for text in found[key]]
    assert unlisted == [], "\n" + "\n".join(unlisted)
    stale = {key for key in ALLOWED if (base / key[0]).is_relative_to(ROOT / tree)} - set(found)
    assert sorted(stale) == [], "ALLOWED entries that no longer fire"


def test_every_allowed_entry_has_a_reason():
    """With no suppression comments, an exception is an ALLOWED entry that says why."""
    for (path, rule), reason in ALLOWED.items():
        assert rule in RULES and _covers(("repro", "tests"), path) and reason.strip(), path


def test_every_scope_prefix_names_code():
    """A prefix naming no module or package silently scopes nothing."""
    for rule, (covered, exempt) in SCOPES.items():
        for prefix in covered + exempt:
            path = (ROOT / "src" if prefix.startswith("repro") else ROOT) / prefix
            assert path.is_file() or (path / "__init__.py").is_file(), (rule, prefix)


P, T, X = "repro/sim/fixture.py", "tests/test_fixture.py", "repro/experiments/fixture.py"
B, C, S = "repro/brahms/fixture.py", "repro/core/fixture.py", "repro/sgx/fixture.py"
UNWRAP = "def unwrap(host):\n    return host._enclave\n"
SET_LOOP = "for x in set(items):\n    pass\n"

#: ``(rule, name, source[, path[, count]])`` rows; a case's test id is ``rule-name``.
FIRES = [
    ("det-global-random", "call", "import random\nrandom.choice(peers)"),
    ("det-global-random", "from-import", "from random import shuffle"),
    ("det-wall-clock", "time", "import time\nfrom time import perf_counter\ntime.time()", P, 2),
    ("det-wall-clock", "datetime-now", "from datetime import datetime\ndatetime.now()"),
    ("det-os-entropy", "os-urandom", "import os\nnonce = os.urandom(16)"),
    ("det-os-entropy", "secrets-import", "import secrets"),
    ("det-os-entropy", "uuid4", "import uuid\nfrom uuid import uuid4\nuuid.uuid4()", P, 2),
    ("det-os-entropy", "in-tests-too", "import os\nnonce = os.urandom(8)", T),
    ("det-os-entropy", "seedless-in-helper", "import random\ndef rng(): return random.Random()"),
    ("det-os-entropy", "seedless-none-and-from-import",
     "import random as r\nfrom random import Random as R\nr.Random(None), R()", P, 2),
    ("det-os-entropy", "seedless-np", "import numpy as np\nfrom numpy.random import default_rng\n"
     "np.random.default_rng(), np.random.RandomState(), default_rng(seed=None)", T, 3),
    ("det-set-iteration", "for-over-set-call", SET_LOOP),
    ("det-set-iteration", "comprehension-over-set-literal", "pair = [x for x in {a, b}]"),
    ("det-set-iteration", "experiments-layer", SET_LOOP, X),
    ("enclave-private-access", "private-read", "key = enclave._group_key", B),
    ("enclave-private-access", "raw-enclave-reference", UNWRAP, B),
    ("enclave-internal-import", "sealing-key", "from repro.sgx.enclave import sealing_key_for", C),
    ("enclave-internal-import", "star-import", "from repro.core.enclave import *", C),
    ("enclave-boundary-bypass", "object-getattribute", 'object.__getattribute__(host, "_x")', C),
    ("enclave-boundary-bypass", "private-getattr", 'getattr(enclave_host, "_measurement")', C),
    ("crypto-stdlib-random", "module-scope-in-sgx", "import random", S),
    ("crypto-digest-compare", "mac-equality", "ok = mac == expected_mac"),
    ("crypto-digest-compare", "digest-call-equality", "ok = sha256(payload) == expected"),
    ("crypto-weak-hash", "md5", "import hashlib\nh = hashlib.md5(data)"),
    ("crypto-weak-hash", "new-sha1", 'import hashlib\nh = hashlib.new("sha1", data)'),
    ("purity-print", "protocol-code", 'print("pushing", view)', B),
    ("purity-print", "experiments-layer", "print(rows)", X),
    ("purity-io", "open-and-socket", 'import socket\nhandle = open("view.log", "w")', B, 2),
]

QUIET = [
    ("det-global-random", "injected-rng", "def pick(peers, rng):\n    return rng.choice(peers)"),
    ("det-global-random", "seeded-instance", "import random\nrng = random.Random(seed)"),
    ("det-global-random", "from-import-random-class", "from random import Random"),
    ("det-wall-clock", "method-named-time", "elapsed = timer.time()"),
    ("det-os-entropy", "os-path", "import os\npath = os.path.join(a, b)"),
    ("det-os-entropy", "seeded-generators", "import random\nimport numpy as np\n"
     "a, b = random.Random(seed), np.random.default_rng(derive_seed(seed, 's'))\n"
     "c, d, e = np.random.RandomState(seed=seed), random.Random(*args), seed.Random()"),
    ("det-set-iteration", "sorted-set", "for x in sorted(set(items)):\n    pass"),
    ("det-set-iteration", "tests-out-of-scope", SET_LOOP, T),
    ("enclave-private-access", "self-private-state", "enclave_cache = self._cache", B),
    ("enclave-private-access", "trusted-path", UNWRAP, S),
    ("enclave-private-access", "tests-exempt", UNWRAP, T),
    ("enclave-internal-import", "public-names", "from repro.sgx.enclave import Enclave", C),
    ("enclave-boundary-bypass", "plain-getattr", 'getattr(config, "name", None)', C),
    ("crypto-stdlib-random", "type-checking-gate", "if TYPE_CHECKING:\n    import random", S),
    ("crypto-stdlib-random", "out-of-scope-package", "import random"),
    ("crypto-digest-compare", "mode-string", 'is_hmac = mode == "hmac"'),
    ("crypto-digest-compare", "none-check", "missing = digest == None"),
    ("crypto-digest-compare", "constant-time-equal", "ok = constant_time_equal(mac, expected_mac)"),
    ("crypto-weak-hash", "sha256", "import hashlib\nh = hashlib.sha256(data)"),
    ("purity-print", "tests-out-of-scope", "print(rows)", T),
    ("purity-io", "method-named-open", "handle = channel.open()", B),
]


def _case(rule, name, source, path=P, count=1):
    return pytest.param(rule, path, source, count, id=f"{rule}-{name}")


@pytest.mark.parametrize("rule, path, source, count", [_case(*row) for row in FIRES])
def test_fires(rule, path, source, count):
    assert [found[2] for found in findings(source, path)].count(rule) == count


@pytest.mark.parametrize("rule, path, source, count", [_case(*row) for row in QUIET])
def test_stays_quiet(rule, path, source, count):
    assert rule not in [found[2] for found in findings(source, path)]


def test_every_rule_has_both_fixtures():
    assert {row[0] for row in FIRES} == {row[0] for row in QUIET} == set(SCOPES) == set(RULES)
