"""One writer per store, one renderer per outcome and one binding per
desk-path name, checked on the source rather than on a run: a second
writer is found even where no scenario reaches it."""

import ast
from pathlib import Path

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


def test_each_format_is_defined_once_in_model():
    # The records, the grammar, the wire and the stores read one table.
    from cloudpass.model import FORMATS
    assert sorted(FORMATS) == ["airport", "country", "hex64", "tracking"]
    for pattern, code, _ in FORMATS.values():
        assert _constants(code) == {("model.py", "")}, code
        assert _constants(pattern.pattern) == {("model.py", "")}, pattern


def test_the_engine_reparses_no_argument():
    # The grammar hands the engine values; it converts nothing again.
    for name in ("int", "duration"):
        assert "simnet/engine.py" not in {module for module, _ in _calls(name)}, name
