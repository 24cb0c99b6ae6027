"""Exception types shared across the package, and the checked reading of
config documents and text files that raises them."""

import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING


class TrajCoupleError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # rebuilt without __init__ (subclasses change its signature): crosses process pools
        return type(self).__new__, (type(self), *self.args), self.__dict__


class LogNearPi(TrajCoupleError):
    """Rotation log requested too close to the pi singularity."""


class DegenerateConfiguration(TrajCoupleError):
    """Point configuration too degenerate for the requested fit."""


class OutOfDomain(TrajCoupleError):
    """Pixel location outside the sampling domain of a pointmap grid."""


class UnknownBlock(TrajCoupleError):
    """Parameter block name not present in the store/tape."""


class IndexOutOfRange(TrajCoupleError):
    """Flat index outside a parameter block."""


class MissingTargets(TrajCoupleError):
    """Supervised camera-consistency loss evaluated without anchor targets."""


class ConfigInvalid(TrajCoupleError):
    """A configuration document failed validation; path names its file, if it was read from one."""

    def __init__(self, field, message, path=None):
        self.field, self.message = field, message
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}invalid config field '{field}': {message}")


class Diverged(TrajCoupleError):
    """Optimization loss exceeded the divergence bound after backtracking."""


class EmptyValidMask(TrajCoupleError):
    """Depth evaluation received no valid pixels."""


class FileFormatError(TrajCoupleError):
    """A data file does not match its documented format."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = f"{path}" if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


@contextmanager
def open_text(path):
    """open(path) for reading, with bytes that do not decode raising FileFormatError."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FileFormatError(path, f"not {exc.encoding} text ({exc.reason})") from None


class ConfigDocument:
    """Base of the config dataclasses: checked construction from JSON documents.

    Each field's type is taken from its default.  An int field takes an
    integer, a float field a finite int or float, a bool or str field its
    own type (a bool is never a number), and a field whose default is itself
    a ConfigDocument takes that document (in from_dict, a JSON object of it).
    validate checks every field so, for a config built in code as for one
    read from a file, then applies the subclass's _check_rules.  Values are
    kept as given, so a resolved config writes back the JSON it was read from.
    """

    def to_dict(self):
        doc = {name: getattr(self, name) for name in self.__dataclass_fields__}
        return {k: v.to_dict() if isinstance(v, ConfigDocument) else v for k, v in doc.items()}

    def validate(self):
        for name, spec in self.__dataclass_fields__.items():
            _checked_value(name, getattr(self, name), _default(spec))
        self._check_rules()
        return self

    def _check_rules(self):
        """Raise ConfigInvalid for values of the right types that the document rejects."""

    @classmethod
    def from_dict(cls, doc):
        fields = cls.__dataclass_fields__
        unknown = sorted(set(doc) - set(fields))
        if unknown:
            raise ConfigInvalid(unknown[0], f"unknown {cls.__name__} field")
        values = {}
        for name, value in doc.items():
            default = _default(fields[name])
            if isinstance(default, ConfigDocument) and isinstance(value, dict):
                value = type(default).from_dict(value)
            values[name] = value
        return cls(**values).validate()

    @classmethod
    def from_file_doc(cls, doc, path):
        """from_dict of doc, read from the file at path, which a bad field's error names."""
        try:
            return cls.from_dict(doc)
        except ConfigInvalid as exc:
            raise ConfigInvalid(exc.field, exc.message, path) from None

    @classmethod
    def from_json_file(cls, path):
        return cls.from_file_doc(read_json_object(path), path)


def read_json_object(path):
    """The JSON object in the file at path; FileFormatError if it holds anything else."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FileFormatError(path, f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(path, "must hold a JSON object")
    return doc


def _default(spec):
    return spec.default if spec.default is not MISSING else spec.default_factory()


def _checked_value(name, value, default):
    if isinstance(default, ConfigDocument):
        if not isinstance(value, type(default)):
            raise ConfigInvalid(name, "must be a JSON object")
        value.validate()
        return
    if isinstance(default, bool):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        # compares exactly, without converting a huge int (math.isfinite would overflow)
        ok = number and abs(value) <= sys.float_info.max
        want = "a finite number"
    else:
        ok, want = isinstance(value, type(default)), f"a {type(default).__name__}"
    if not ok:
        raise ConfigInvalid(name, f"must be {want}, got {value!r}")
