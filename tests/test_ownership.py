"""One writer per store, one renderer per outcome and one binding per
desk-path name, checked on the source rather than on a run: a second
writer is found even where no scenario reaches it."""

import ast
import enum
import importlib
import pkgutil
from pathlib import Path

import cloudpass

SRC = Path(__file__).resolve().parents[1] / "src" / "cloudpass"

# Methods of a dict that store into it.
_STORING_METHODS = {"update", "setdefault"}


def _is_attr(node, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr


def _sites(matches, root: Path) -> set[tuple[str, str]]:
    """Every node under ``root`` for which ``matches`` is true, as
    ``(module path, enclosing qualified name)``; module level is ``""``."""
    sites = set()

    def walk(node, module: str, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if matches(node):
            sites.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            walk(child, module, scope)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)),
             path.relative_to(root).as_posix(), ())
    return sites


def _stores(attr: str, root: Path = SRC) -> set[tuple[str, str]]:
    """Every place under ``root`` that stores into ``<anything>.<attr>``:
    binding the attribute, or setting or updating one of its items.
    Removing an item is not a store."""
    return _sites(lambda node: (
        (_is_attr(node, attr) and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Subscript) and _is_attr(node.value, attr)
            and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _STORING_METHODS
            and _is_attr(node.func.value, attr))), root)


def _calls(name: str, root: Path = SRC) -> set[tuple[str, str]]:
    """Every place under ``root`` that calls ``name`` or ``<anything>.<name>``."""
    return _sites(lambda node: isinstance(node, ast.Call) and (
        _is_attr(node.func, name)
        or (isinstance(node.func, ast.Name) and node.func.id == name)), root)


def _constants(value: str, root: Path = SRC) -> set[tuple[str, str]]:
    """Every place under ``root`` that holds the string constant ``value``."""
    return _sites(lambda node: (isinstance(node, ast.Constant)
                                and node.value == value), root)


def test_only_the_device_half_of_nfc_locks_a_device():
    assert _stores("locked") == {("nfc.py", "answer")}


def test_only_clouds_replicate_writes_a_replica_row():
    assert _stores("replicated") == {("clouds.py", "AirportCloud.__init__"),
                                     ("clouds.py", "replicate")}


def test_store_finder_sees_each_form_of_store(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(x): x.box = 1\n"
        "def b(x): x.box[1] = 2\n"
        "def c(x): x.box.setdefault(1, 2)\n"
        "class K:\n"
        "    def d(self): self.box += 1\n"
        "def e(x): del x.box[1]; return x.box[2], x.box.pop(3)\n")
    assert _stores("box", tmp_path) == {("m.py", "a"), ("m.py", "b"),
                                        ("m.py", "c"), ("m.py", "K.d")}


def test_only_event_log_emit_appends_to_a_run_log():
    # The benchmark's traced events.emitted count wraps EventLog.emit, so
    # an event put into the list anywhere else would be missing from it.
    growing = _sites(lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"append", "extend", "insert"}
        and _is_attr(node.func.value, "events")), SRC)
    assert growing == {("simnet/events.py", "EventLog.emit")}
    assert _stores("events") == {("simnet/events.py", "EventLog.__init__")}


def test_only_finish_builds_a_transcript():
    # The cause and the lines rendered from it are made in one place.
    assert _calls("CheckTranscript") == {("immigration.py", "run_check.finish")}


def test_only_the_engine_desk_check_reports_a_police_alert():
    assert _constants("police-alert") == {("simnet/engine.py", "_run_desk_check")}


def test_call_finder_sees_each_place_of_a_call(tmp_path):
    (tmp_path / "m.py").write_text(
        "import t\n"
        "T = Box(1)\n"
        "class K:\n"
        "    def d(self): return t.Box(2)\n"
        "def e():\n"
        "    def f(): return Box(3)\n"
        "    return Box, 'Box', f\n")
    assert _calls("Box", tmp_path) == {("m.py", ""), ("m.py", "K.d"),
                                       ("m.py", "e.f")}
    assert _constants("Box", tmp_path) == {("m.py", "e")}


def _member_bindings(enum: str, root: Path = SRC) -> set[tuple[str, str]]:
    """Every place under ``root`` that binds a name to ``<enum>.<member>``."""
    return _sites(lambda node: (
        isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) for target in node.targets)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == enum), root)


def test_only_model_binds_a_session_state_member():
    # The desk's hot paths read the states from module globals; each is
    # bound once, in model, and imported everywhere else.
    assert _member_bindings("SessionState") == {("model.py", "")}


def test_only_immigration_names_an_outcome():
    for outcome in ("PERMIT", "ISOLATE", "LOCK_AND_ALERT"):
        modules = {module for module, _ in _constants(outcome)}
        assert modules == {"immigration.py"}, outcome


def _modules() -> list:
    """Every module of cloudpass, imported."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(cloudpass.__path__, "cloudpass.")]


def _enum_base(node) -> bool:
    """A class with ``Enum`` or ``<module>.Enum`` among its bases."""
    return isinstance(node, ast.ClassDef) and any(
        _is_attr(b, "Enum") or (isinstance(b, ast.Name) and b.id == "Enum")
        for b in node.bases)


def test_every_enum_hashes_by_identity():
    # Members are singletons compared by identity, so object's hash, which
    # runs in C, serves; Enum's runs in Python. One base, model._Enum,
    # gives it to every enum but an IntEnum, whose members hash as ints.
    enums = set()
    for module in _modules():
        enums |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, enum.Enum)
                  and cls.__module__ == module.__name__}
    plain = {cls for cls in enums if not issubclass(cls, int)}
    assert {"Checkpoint", "FaultKind", "IdKind", "Outcome", "QrMode",
            "ResourceKind", "SessionState"} <= {cls.__name__ for cls in plain}
    for cls in plain:
        assert cls.__hash__ is object.__hash__, cls
        assert all(hash(member) == object.__hash__(member) for member in cls), cls
    assert _sites(_enum_base, SRC) == {("model.py", "_Enum")}


# Every memo in src/cloudpass: each functools.lru_cache bound at module
# level, and qrlink._TOKENS, the dict token_wire fills for token_from_wire
# (an lru_cache cannot be filled from outside). test_golden's bypass test
# replaces each one and expects every pinned byte again.
_MEMOS = {"authflow._kept_hash", "nfc._presentation", "nfc._presentation_body",
          "qrlink._kept_signature", "simnet.clock._iso_minute", "qrlink._TOKENS"}


def _filled_dicts(root: Path = SRC) -> set[str]:
    """Every module-level dict display under ``root`` that a function
    stores an item into, as ``module.name``."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        dicts = {target.id for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and isinstance(node.value, (ast.Dict, ast.DictComp))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name)}
        module = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        found |= {f"{module}.{node.value.id}"
                  for function in ast.walk(tree)
                  if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(function)
                  if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id in dicts}
    return found


def test_every_memo_is_listed():
    caches = {f"{module.__name__.removeprefix('cloudpass.')}.{name}"
              for module in _modules() for name, value in vars(module).items()
              if hasattr(value, "cache_clear") and value.__module__ == module.__name__}
    # None sits in a class or a function, where the walk above misses it.
    assert len(_calls("lru_cache")) == len(caches)
    # Besides the memo: the codec registries, filled at import by
    # register_codec, and qrlink._NODES, a finite table of run responses
    # (its keys are costs relative to the cheapest state, which are
    # bounded), not a memo.
    tables = {"model._CODEC_BY_TYPE", "model._CODEC_BY_TAG", "qrlink._NODES"}
    assert caches | _filled_dicts() == _MEMOS | tables


def test_filled_dict_finder_sees_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "A = {}\n"
        "B: dict = {1: 2}\n"
        "C = {k: k for k in ()}\n"
        "D = {}\n"
        "def f(): A[1] = 2\n"
        "class K:\n"
        "    def g(self): x = B[1] = C[2] = 3; del D[1]; return D[2]\n")
    assert _filled_dicts(tmp_path) == {"m.A", "m.B", "m.C"}


def test_each_format_is_defined_once_in_model():
    # The records, the grammar, the wire and the stores read one table.
    from cloudpass.model import FORMATS
    assert sorted(FORMATS) == ["airport", "country", "hex64", "tracking"]
    for pattern, code, _ in FORMATS.values():
        assert _constants(code) == {("model.py", "")}, code
        assert _constants(pattern.pattern) == {("model.py", "")}, pattern


def test_every_draw_is_a_model_draw():
    # Ids, codes and indices come from model.draw_below and draw_text,
    # which rest on getrandbits alone, not on how random.choice and
    # randrange are derived from it.
    assert _calls("choice") == set()
    assert _calls("randrange") == set()


def test_the_engine_reparses_no_argument():
    # The grammar hands the engine values; it converts nothing again.
    for name in ("int", "duration"):
        assert "simnet/engine.py" not in {module for module, _ in _calls(name)}, name



def _frozen_dataclass(node) -> bool:
    """A class decorated ``dataclass(..., frozen=...)``, by either name."""
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Call)
        and (_is_attr(d.func, "dataclass")
             or (isinstance(d.func, ast.Name) and d.func.id == "dataclass"))
        and any(k.arg == "frozen" for k in d.keywords)
        for d in node.decorator_list)


def _dataclasses_replace(node) -> bool:
    """``dataclasses.replace``, or ``replace`` imported from dataclasses."""
    return ((_is_attr(node, "replace") and isinstance(node.value, ast.Name)
             and node.value.id == "dataclasses")
            or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                and "replace" in {alias.name for alias in node.names}))


def test_immutable_values_are_records():
    # One frozen-record path, model.record. The mutable DeviceState is the
    # one registered class that is not a record: it checks itself when it
    # is encoded. model.replace rebuilds through the constructor.
    import cloudpass.qrlink  # noqa: F401  (registers LinkToken)
    from cloudpass import model
    assert _sites(_frozen_dataclass, SRC) == set()
    assert _sites(_dataclasses_replace, SRC) == set()
    assert {cls for cls in model._CODEC_BY_TYPE
            if not issubclass(cls, model._Record)} == {model.DeviceState}


def _record_class(node) -> bool:
    """A class decorated ``record`` or ``<module>.record``."""
    return isinstance(node, ast.ClassDef) and any(
        _is_attr(d, "record") or (isinstance(d, ast.Name) and d.id == "record")
        for d in node.decorator_list)


def test_no_record_calls_its_own_validate():
    # model.record's __init__ runs validate after __post_init__, so a
    # record's __post_init__ only normalises and no caller checks a record
    # again. Only the mutable DeviceState, a dataclass, calls its own.
    records = {name for _, name in _sites(_record_class, SRC)}
    assert {"PassportPage", "CheckTranscript"} <= records
    assert "DeviceState" not in records
    assert _calls("validate") == {("model.py", "DeviceState.__post_init__")}


def _refusing_post_inits(root: Path = SRC) -> set[tuple[str, str]]:
    """Every ``raise`` under ``root`` inside a record's ``__post_init__``,
    as its site."""
    inits = {(module, f"{name}.__post_init__")
             for module, name in _sites(_record_class, root)}
    return {(module, scope)
            for module, scope in _sites(lambda node: isinstance(node, ast.Raise), root)
            if any(module == m and (scope + ".").startswith(init + ".")
                   for m, init in inits)}


def test_no_record_refuses_in_its_post_init():
    # The rule above, for refusals: every check of a record is in its
    # validate, so the codes and texts of its refusals are in one place.
    assert _refusing_post_inits() == set()


def test_refusing_post_init_finder_sees_each_form(tmp_path):
    (tmp_path / "r.py").write_text(
        "from cloudpass.model import record\n"
        "@record\n"
        "class E:\n"
        "    x: int\n"
        "    def __post_init__(self):\n"
        "        def f(): raise ValueError\n"
        "        raise ValueError\n"
        "    def validate(self): raise ValueError\n"
        "class G:\n"
        "    def __post_init__(self): raise ValueError\n")
    assert _refusing_post_inits(tmp_path) == {("r.py", "E.__post_init__"),
                                              ("r.py", "E.__post_init__.f")}


def test_record_finder_sees_each_form(tmp_path):
    (tmp_path / "r.py").write_text(
        "from cloudpass import model\n"
        "from cloudpass.model import record\n"
        "@record\n"
        "class E:\n"
        "    x: int\n"
        "@model.record\n"
        "class F:\n"
        "    y: int\n"
        "class G:\n"
        "    z: int\n")
    assert _sites(_record_class, tmp_path) == {("r.py", "E"), ("r.py", "F")}


def test_only_model_and_the_link_signer_write_a_text_field():
    # The codec's text rule refuses for the records that carry the text;
    # outside model, only the link signer writes text, for a token that
    # does not exist yet, and its kind names once, at import.
    outside = {site for site in _calls("_text_field") if site[0] != "model.py"}
    assert outside == {("qrlink.py", ""), ("qrlink.py", "_signing_bytes")}


def test_record_guards_see_each_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, replace\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "@dataclasses.dataclass(eq=False, frozen=True)\n"
        "class B:\n"
        "    y: int = 0\n"
        "    def c(self): return dataclasses.replace(self, y=1)\n"
        "@dataclass\n"
        "class D:\n"
        "    z: int\n")
    assert _sites(_frozen_dataclass, tmp_path) == {("m.py", "A"), ("m.py", "B")}
    assert _sites(_dataclasses_replace, tmp_path) == {("m.py", ""), ("m.py", "B.c")}
