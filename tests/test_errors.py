"""The error hierarchy: arguments kept as ``args``, text rendered when read."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass import errors
from cloudpass.errors import (AuthError, CloudPassError, ScenarioParseError,
                              ScenarioRuntimeError)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ALL_ERRORS = [CloudPassError, *_subclasses(CloudPassError)]
# The classes built as ``(code, detail)``; the two scenario errors take
# their own arguments.
CODED_ERRORS = [cls for cls in ALL_ERRORS
                if cls not in (ScenarioParseError, ScenarioRuntimeError)]


def test_every_error_class_is_covered():
    assert {cls.__name__ for cls in ALL_ERRORS} == {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, CloudPassError)}


def _examples(cls):
    if cls is ScenarioParseError:
        return [cls("unknown verb 'x'", 3, 4)]
    if cls is ScenarioRuntimeError:
        return [cls(2, AuthError("BAD_TIME", "device shows 12:00"), "line 3"),
                cls(0, CloudPassError("NO_SUCH_BLOB"), "--fault 1")]
    return [cls("SOME_CODE"), cls("SOME_CODE", "a detail"), cls("SOME_CODE", "")]


def _plain(value):
    """``value`` with each error in it, which compares by identity,
    replaced by its type and plain arguments."""
    if isinstance(value, BaseException):
        return type(value), _plain(value.args)
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


_COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("make_copy", _COPIES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls", ALL_ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_copy_and_pickle(cls, make_copy):
    for error in _examples(cls):
        again = make_copy(error)
        assert type(again) is cls
        assert str(again) == str(error)
        assert again.code == error.code
        assert _plain(again.args) == _plain(error.args)
        for name in ("line", "column", "index"):
            assert getattr(again, name, None) == getattr(error, name, None)


def test_args_are_the_constructor_arguments():
    cause = AuthError("BAD_TIME", "device shows 12:00")
    assert AuthError("BAD_ANSWER").args == ("BAD_ANSWER",)
    assert cause.args == ("BAD_TIME", "device shows 12:00")
    parse = ScenarioParseError("unknown verb 'x'", 3, 4)
    assert parse.args == ("unknown verb 'x'", 3, 4)
    assert (parse.code, parse.line, parse.column) == ("PARSE_ERROR", 3, 4)
    assert str(parse) == "line 3, column 4: unknown verb 'x'"
    runtime = ScenarioRuntimeError(2, cause, "line 3")
    assert runtime.args == (2, cause, "line 3")
    assert (runtime.code, runtime.index) == ("RUNTIME_FAULT", 2)
    assert str(runtime) == "line 3: BAD_TIME: device shows 12:00"


def test_detail_is_positional_only():
    with pytest.raises(TypeError):
        AuthError("BAD_TIME", detail="device shows 12:00")
    with pytest.raises(TypeError):
        AuthError()


class _Detail:
    """A detail that counts how often it is rendered."""

    def __init__(self):
        self.rendered = 0

    def __bool__(self):
        return True

    def __format__(self, spec):
        self.rendered += 1
        return "shown"


def test_text_is_rendered_only_when_read():
    detail = _Detail()
    error = AuthError("BAD_TIME", detail)
    assert detail.rendered == 0
    assert str(error) == "BAD_TIME: shown"
    assert detail.rendered == 1


@given(st.sampled_from(CODED_ERRORS),
       st.text(min_size=1, max_size=12),
       st.one_of(st.none(), st.text(max_size=12)))
def test_text_and_code_follow_the_rule_property(cls, code, detail):
    # ``CODE``, or ``CODE: detail`` when the detail is not empty.
    error = cls(code) if detail is None else cls(code, detail)
    assert error.code == code
    assert str(error) == (f"{code}: {detail}" if detail else code)
    assert error.args == ((code,) if detail is None else (code, detail))
